//! The benchmark's own checks: seeded inputs repeat, held-out calls are
//! disjoint from the install corpus, the footprint split is right, and the
//! metric catalogue matches `BENCHMARK.json`.

use adsala_realbench::metrics::{END_TO_END, PER_LAYER};
use adsala_realbench::workload::{
    call_stream, footprint, heldout, install_corpus, routines, serve_menu, serve_plan, Band,
    CAP_BYTES, L2_BYTES,
};
use std::collections::HashSet;

const NT_MAX: usize = 2;

#[test]
fn same_seed_gives_identical_inputs() {
    for band in [Band::Small, Band::Large] {
        assert_eq!(call_stream(band, NT_MAX, 7), call_stream(band, NT_MAX, 7));
        assert_ne!(call_stream(band, NT_MAX, 7), call_stream(band, NT_MAX, 8));
    }
    assert_eq!(serve_plan(7, 0.5), serve_plan(7, 0.5));
    assert_ne!(serve_plan(7, 0.5), serve_plan(8, 0.5));
}

#[test]
fn heldout_streams_are_disjoint_from_the_install_corpus() {
    for seed in [1, 2, 3] {
        for r in routines() {
            let timed: HashSet<_> = install_corpus(r, NT_MAX).iter().map(|s| s.dims).collect();
            for band in [Band::Small, Band::Large] {
                let held = heldout(r, band, NT_MAX, seed);
                assert!(!held.is_empty(), "{r} {band:?} seed {seed}: empty stream");
                assert!(
                    held.iter().all(|d| !timed.contains(d)),
                    "{r} {band:?}: a timed shape is replayed"
                );
            }
        }
    }
}

#[test]
fn no_routine_repeats_a_shape_back_to_back() {
    for band in [Band::Small, Band::Large] {
        let stream = call_stream(band, NT_MAX, 5);
        for r in routines() {
            let dims: Vec<_> = stream
                .iter()
                .filter(|c| c.routine == r)
                .map(|c| c.dims)
                .collect();
            let cyclic_pairs = dims.iter().zip(dims.iter().cycle().skip(1));
            assert!(
                cyclic_pairs.into_iter().all(|(a, b)| a != b),
                "{r} {band:?}"
            );
        }
    }
}

#[test]
fn footprint_split_is_at_the_l2() {
    for r in routines() {
        for d in heldout(r, Band::Small, NT_MAX, 4) {
            assert!(footprint(r, d) <= L2_BYTES, "{r} {d}");
        }
        for d in heldout(r, Band::Large, NT_MAX, 4) {
            let f = footprint(r, d);
            assert!(f > L2_BYTES && f <= CAP_BYTES, "{r} {d}: {f} bytes");
        }
    }
    // The band edges themselves.
    assert!(Band::Small.admits(L2_BYTES) && !Band::Large.admits(L2_BYTES));
    assert!(Band::Large.admits(L2_BYTES + 1.0) && !Band::Small.admits(L2_BYTES + 1.0));
    assert!(Band::Large.admits(CAP_BYTES) && !Band::Large.admits(CAP_BYTES + 1.0));
}

#[test]
fn serve_menu_fits_the_l2() {
    for c in serve_menu() {
        assert!(
            footprint(c.routine, c.dims) <= L2_BYTES,
            "{} {}",
            c.routine,
            c.dims
        );
    }
}

fn benchmark_json() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a serde_json::Value, key: &str) -> &'a [serde_json::Value] {
    v.get(key)
        .and_then(|l| l.as_array())
        .unwrap_or_else(|| panic!("{key} is a list"))
}

fn text<'a>(v: &'a serde_json::Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(|s| s.as_str())
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn listed(v: &serde_json::Value, key: &str) -> Vec<(String, String)> {
    list(v, key)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let v = benchmark_json();
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&v, "end_to_end"), own(&END_TO_END));
    assert_eq!(listed(&v, "per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = list(&v, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, ["calls_small", "calls_large"]);
}
