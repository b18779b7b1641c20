//! `adsala-realbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Installs real-host models, runs one calls workload, and prints a run
//! stamp and report (lines starting with `#`) followed by one JSON result
//! line. A traced run (`--trace 1`) also probes the layers, the serve
//! layer included, and writes its spans to `.realbench/`.
//! Exits 1 when an output is wrong, 2 on bad arguments.

use adsala::{Adsala, RealTimer};
use adsala_blas3::op::Routine;
use adsala_blas3::{Blas3Backend, Float, NativeBackend};
use adsala_realbench::calls::{self, Buffers, CallsOutcome};
use adsala_realbench::install::install;
use adsala_realbench::metrics::{result_line, Metrics, END_TO_END};
use adsala_realbench::probes;
use adsala_realbench::serve::{self, menu_jobs, Fate, ServeSetup};
use adsala_realbench::stats::{chunked_quantile, mean, median, quantile};
use adsala_realbench::trace::{Tracer, NO_SPAN};
use adsala_realbench::workload::{self, Band, Call};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median, and the window is split
/// over the installs.
const SETUPS: usize = 3;

/// Seconds of open-loop serve traffic in a traced run.
const SERVE_PROBE_S: f64 = 2.0;

/// Length of the serve probe's slices, seconds: its tail percentiles are
/// the median over slices of each slice's p99. At the serve rate a slice
/// holds about a thousand jobs, ten past its p99.
const TAIL_SLICE_S: f64 = 0.1;

/// Most spans written to a trace file.
const TRACE_FILE_SPANS: usize = 200_000;

/// Calls of a calls workload's stream that the traced run times at every
/// thread count.
const SWEEP_CALLS: usize = 140;

struct Args {
    /// The workload's footprint band.
    band: Band,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {k}"))?;
        let v = it.next().ok_or(format!("--{key} needs a value"))?;
        if !["workload", "seed", "seconds", "trace"].contains(&key) {
            return Err(format!("unknown option --{key}"));
        }
        kv.insert(key, v);
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing --{k}"));
    let name = get("workload")?.to_string();
    let band = match name.as_str() {
        "calls_small" => Band::Small,
        "calls_large" => Band::Large,
        other => return Err(format!("unknown workload {other}")),
    };
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        band,
        name,
        seed,
        seconds,
        trace,
    })
}

/// Totals over every measured window of a run.
#[derive(Default)]
struct Summary {
    attempted: u64,
    failed: u64,
    checked: u64,
    /// Operations whose output was wrong or that the backend refused.
    wrong: u64,
    nt_hist: BTreeMap<Routine, Vec<u64>>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("adsala-realbench: {e}");
            eprintln!("usage: --workload calls_small|calls_large --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let stamp = stamp(&args);
    for line in &stamp {
        println!("# {line}");
    }
    let mut tracer = Tracer::new(args.trace);
    let nt_max = NativeBackend.max_threads();

    // Set-up: install every routine and build the runtime SETUPS times.
    // The workload window is split over all of them (see `calls_e2e`).
    let (mut setup_s, mut gather_s, mut fit_s) = (vec![], vec![], vec![]);
    let mut rts = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let root = tracer.span("setup", t0, t0, NO_SPAN, i as u64);
        let inst = install(&RealTimer::new(1), &mut tracer, root);
        let b0 = Instant::now();
        rts.push(Adsala::with_backend(NativeBackend, inst.routines, nt_max));
        let t1 = Instant::now();
        tracer.span("build", b0, t1, root, i as u64);
        tracer.close(root, t1);
        setup_s.push((t1 - t0).as_secs_f64());
        gather_s.push(inst.gather_s);
        fit_s.push(inst.fit_s);
    }
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# set-up seconds: total {} | gather {} | fit {}",
        fmt(&setup_s),
        fmt(&gather_s),
        fmt(&fit_s)
    );

    let mut e2e = Metrics::new(false);
    e2e.set("setup_s", median(&setup_s));
    let mut layer = Metrics::new(true);
    layer.set("install.gather_s", median(&gather_s));
    layer.set("install.fit_s", median(&fit_s));
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };

    let mut summary = run_calls(&rts, &args, window, &mut e2e, &mut layer, &mut tracer);
    if args.trace {
        let runtime = rts.pop().expect("SETUPS > 0");
        serve_probe(runtime, args.seed, &mut layer, &mut tracer, &mut summary);
    }
    nt_report(&summary.nt_hist);
    println!(
        "# output checks: {} recomputed with ReferenceBackend; {} of {} attempted failed",
        summary.checked, summary.failed, summary.attempted
    );
    e2e.set("peak_rss_mb", peak_rss_mb());

    let metrics = if args.trace {
        probe_layers(&mut layer, nt_max);
        self_time_report(&tracer);
        let path = std::path::PathBuf::from(format!(
            ".realbench/trace-{}-seed{}.jsonl",
            args.name, args.seed
        ));
        let header = format!("{{\"stamp\": {:?}}}", stamp.join("; "));
        match tracer.write_jsonl(&path, &header, TRACE_FILE_SPANS) {
            Ok(()) => println!(
                "# trace: {} spans recorded, {} written to {}",
                tracer.spans().len(),
                TRACE_FILE_SPANS.min(tracer.spans().len()),
                path.display()
            ),
            Err(e) => println!("# trace: not written ({e})"),
        }
        &layer
    } else {
        &e2e
    };
    // Late, refused or shed jobs count as failed; only wrong outputs make
    // the run incorrect.
    let correct = summary.wrong == 0;
    println!(
        "{}",
        result_line(correct, summary.attempted, summary.failed, metrics)
    );
    drop(rts);
    if !correct {
        std::process::exit(1);
    }
}

/// Replay the stream for `window` seconds, split evenly over the
/// runtimes (each part continuing the stream where the last stopped),
/// and pool the parts.
fn measure_calls(
    rts: &[Adsala],
    bufs: &mut Buffers,
    stream: &[Call],
    window: f64,
    seed: u64,
    tracer: &mut Tracer,
) -> CallsOutcome {
    let mut pooled = CallsOutcome::default();
    for rt in rts {
        let part = calls::run(
            rt,
            bufs,
            stream,
            pooled.next,
            window / rts.len() as f64,
            seed,
            tracer,
        );
        pooled.absorb(part);
    }
    pooled
}

fn run_calls(
    rts: &[Adsala],
    args: &Args,
    window: f64,
    e2e: &mut Metrics,
    layer: &mut Metrics,
    tracer: &mut Tracer,
) -> Summary {
    let nt_max = NativeBackend.max_threads();
    let stream = workload::call_stream(args.band, nt_max, args.seed);
    println!("# stream: {} distinct calls", stream.len());
    let mut bufs = Buffers::new(args.seed);
    let mut all = measure_calls(
        rts,
        &mut bufs,
        &stream,
        window,
        args.seed,
        &mut Tracer::new(false),
    );
    calls_e2e(e2e, &all);
    windows_report(&all);
    if args.trace {
        let (hits0, misses0) = cache_totals(rts);
        let traced = measure_calls(rts, &mut bufs, &stream, window, args.seed, tracer);
        let (hits1, misses1) = cache_totals(rts);
        let mut with_tracing = Metrics::new(false);
        calls_e2e(&mut with_tracing, &traced);
        overhead_report(e2e, &with_tracing, layer, "call_p50_us");

        let sweep = probes::sweep(
            rts.last().expect("SETUPS > 0"),
            &mut bufs,
            &stream[..SWEEP_CALLS.min(stream.len())],
        );
        println!(
            "# sweep: sum t_max {:.6}s, sum t_choice+t_eval {:.6}s, sum t_oracle {:.6}s, eval p50 {:.2}us",
            sweep.t_max,
            sweep.t_choice_eval,
            sweep.t_oracle,
            median(&sweep.eval_s) * 1e6
        );
        let st = tracer.self_times();
        let total = |name: &str| st.get(name).map_or(f64::NAN, |s| s.total_s);
        let (nt1, calls) = traced.nt_hist.values().fold((0, 0), |(a, b), h| {
            (
                a + h.get(1).copied().unwrap_or(0),
                b + h.iter().sum::<u64>(),
            )
        });
        let (hits, misses) = ((hits1 - hits0) as f64, (misses1 - misses0) as f64);
        layer.set("predictor.eval_us", median(&sweep.eval_s) * 1e6);
        layer.set("predictor.eval_share", total("predictor") / total("call"));
        layer.set("predictor.hit_rate", hits / (hits + misses).max(1.0));
        layer.set("predictor.nt1_share", nt1 as f64 / calls.max(1) as f64);
        layer.set("predictor.speedup_vs_max", sweep.speedup_vs_max());
        layer.set("predictor.regret", sweep.regret());
        layer.set("backend.scaling", sweep.scaling());
        layer.set("backend.gflops", traced.flops / total("backend") / 1e9);
        layer.set(
            "arena.misses_per_call",
            traced.arena_misses as f64 / traced.attempted() as f64,
        );
        layer.set(
            "trace.unattributed_p99",
            quantile(&tracer.unattributed_shares("call"), 0.99),
        );
        all.absorb(traced);
    }
    Summary {
        attempted: all.attempted(),
        failed: all.failed(),
        checked: all.checked,
        wrong: all.failed(),
        nt_hist: all.nt_hist,
    }
}

/// The gated end-to-end metrics. `call_p50_us` is the median over the
/// windows, one per install: the installed models' thread choices vary
/// from install to install, and one install's choices should not decide
/// the run.
fn calls_e2e(m: &mut Metrics, o: &CallsOutcome) {
    let p50s: Vec<f64> = o.windows().iter().map(|(l, _)| quantile(l, 0.5)).collect();
    m.set("call_p50_us", median(&p50s) * 1e6);
    m.set(
        "ok_share",
        (o.attempted() - o.failed()) as f64 / o.attempted() as f64,
    );
}

/// Throughput and tail per install window. Reported, not gated: when the
/// host's other tenants load the second core, `nt = 2` calls slow down
/// several-fold, and these figures moved by a third (GFLOP/s) and three
/// quarters (p99) between runs.
fn windows_report(o: &CallsOutcome) {
    for (i, (l, fl)) in o.windows().iter().enumerate() {
        println!(
            "# install {i}: {} calls, {:.3} GFLOP/s, p50 {:.1} us, p99 {:.1} us",
            l.len(),
            fl.iter().sum::<f64>() / l.iter().sum::<f64>() / 1e9,
            quantile(l, 0.5) * 1e6,
            quantile(l, 0.99) * 1e6
        );
    }
}

/// Open-loop serve traffic against a default `Service` over `runtime`:
/// the serve layer's per-layer metrics.
fn serve_probe(
    runtime: Adsala,
    seed: u64,
    layer: &mut Metrics,
    tracer: &mut Tracer,
    summary: &mut Summary,
) {
    let setup = ServeSetup::new(runtime);
    let menu = menu_jobs(seed);
    let plan = workload::serve_plan(seed, SERVE_PROBE_S);
    let o = serve::run(&setup, &menu, &plan, seed, tracer);
    let (mut submit, mut lag, mut wait, mut exec, mut batch) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut rejected = 0;
    for j in &o.jobs {
        submit.push((j.submit.1 - j.submit.0).as_secs_f64());
        lag.push(j.submit.0.saturating_duration_since(j.due).as_secs_f64());
        match j.fate {
            Fate::Done { stats, .. } => {
                let lat = j.done.saturating_duration_since(j.due).as_secs_f64();
                wait.push(lat - stats.observed_secs);
                exec.push(stats.observed_secs);
                batch.push(stats.batch_size as f64);
            }
            Fate::Rejected => rejected += 1,
            _ => {}
        }
        summary.attempted += 1;
        summary.failed += u64::from(!j.good());
        summary.wrong += u64::from(matches!(
            j.fate,
            Fate::BackendError | Fate::Done { mismatch: true, .. }
        ));
    }
    summary.checked += o.checked as u64;
    // The host stalls every thread for 1-5 ms a few times a second, which
    // alone puts about 1% of these sub-millisecond jobs past 1 ms; so the
    // tail is the p99 a 100 ms slice typically sees.
    let lat: Vec<f64> = o.jobs.iter().map(|j| j.latency_s()).collect();
    let slices = (SERVE_PROBE_S / TAIL_SLICE_S).round() as usize;
    let good = o.jobs.iter().filter(|j| j.good()).count();
    let c = o.counters;
    layer.set("serve.goodput_jobs_s", good as f64 / SERVE_PROBE_S);
    layer.set("serve.job_p50_ms", quantile(&lat, 0.5) * 1e3);
    layer.set(
        "serve.job_p99_ms",
        chunked_quantile(&lat, 0.99, slices) * 1e3,
    );
    layer.set("serve.submit_us", median(&submit) * 1e6);
    layer.set("serve.wait_p50_ms", quantile(&wait, 0.5) * 1e3);
    layer.set(
        "serve.wait_p99_ms",
        chunked_quantile(&wait, 0.99, slices) * 1e3,
    );
    layer.set("serve.exec_ms", median(&exec) * 1e3);
    layer.set("serve.batch_size", mean(&batch));
    layer.set(
        "serve.hit_rate",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
    );
    layer.set("serve.rejected", rejected as f64);
    layer.set("serve.expired", c.expired as f64);
    layer.set("serve.retries", c.retries as f64);
    layer.set("serve.stolen_batches", c.stolen as f64);
    layer.set("serve.shed", c.shed as f64);
    layer.set("serve.gen_lag_ms", quantile(&lag, 0.99) * 1e3);
    println!(
        "# serve probe: {} jobs in {SERVE_PROBE_S} s, {good} good; job p99 {:.3} ms over the whole probe, {:.3} ms per {} ms slice; generator lag p50 {:.3} ms, p99 {:.3} ms",
        o.jobs.len(),
        quantile(&lat, 0.99) * 1e3,
        chunked_quantile(&lat, 0.99, slices) * 1e3,
        TAIL_SLICE_S * 1e3,
        quantile(&lag, 0.5) * 1e3,
        quantile(&lag, 0.99) * 1e3
    );
}

/// Pool, packing and kernel probes; the same on every workload.
fn probe_layers(layer: &mut Metrics, nt_max: usize) {
    layer.set("pool.dispatch_us", probes::pool_dispatch_us(nt_max));
    layer.set("pool.barrier_us", probes::pool_barrier_us(nt_max));
    layer.set("pack.gbps", probes::pack_gbps());
    layer.set("kernel.peak_frac", probes::kernel_peak_frac());
}

/// Predictor cache `(hits, misses)` summed over routines and runtimes.
fn cache_totals(rts: &[Adsala]) -> (u64, u64) {
    rts.iter()
        .flat_map(|rt| {
            workload::routines()
                .into_iter()
                .filter_map(|r| rt.predictor(r))
        })
        .map(|p| p.cache_stats())
        .fold((0, 0), |(h, m), (h1, m1)| (h + h1, m + m1))
}

/// Print the end-to-end metrics untraced and traced, and set the
/// per-layer overhead share of `key`.
fn overhead_report(plain: &Metrics, traced: &Metrics, layer: &mut Metrics, key: &str) {
    println!("# tracing overhead (untraced -> traced, same window length):");
    for (name, unit) in END_TO_END {
        if let (Some(a), Some(b)) = (plain.get(name), traced.get(name)) {
            println!(
                "#   {name:<16} {a:>14.4} -> {b:>14.4} {unit:<8} ({:+.2}%)",
                (b - a) / a * 100.0
            );
        }
    }
    let a = plain.get(key).expect("key metric measured");
    let b = traced.get(key).expect("key metric measured");
    layer.set("trace.overhead_share", (b - a) / a);
}

fn self_time_report(tracer: &Tracer) {
    println!("# per-layer self time (traced window and set-ups):");
    println!(
        "#   {:<16} {:>10} {:>12} {:>12} {:>10}",
        "span", "count", "total_s", "self_s", "self_us/op"
    );
    for (name, st) in tracer.self_times() {
        println!(
            "#   {name:<16} {:>10} {:>12.6} {:>12.6} {:>10.3}",
            st.count,
            st.total_s,
            st.self_s,
            st.self_s / st.count as f64 * 1e6
        );
    }
}

fn nt_report(hist: &BTreeMap<Routine, Vec<u64>>) {
    for (routine, h) in hist {
        let cells: Vec<String> = h
            .iter()
            .enumerate()
            .skip(1)
            .map(|(nt, n)| format!("nt{nt}={n}"))
            .collect();
        println!("# predicted nt {routine}: {}", cells.join(" "));
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs reports peak RSS");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

fn cache_size(index: u32) -> String {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map(|s| s.trim().to_string())
    .unwrap_or_else(|_| "unknown".into())
}

fn stamp(args: &Args) -> Vec<String> {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    vec![
        format!(
            "host: nproc {} | L2 {} | L3 {} | kernels f64 {} f32 {}",
            adsala_blas3::ThreadPool::hardware_threads(),
            cache_size(2),
            cache_size(3),
            <f64 as Float>::kernel().name,
            <f32 as Float>::kernel().name
        ),
        format!(
            "run: rev {rev} | workload {} | seed {} | seconds {} | trace {}",
            args.name,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!(
            "config: install cap {} MiB | L2 split {} MiB | {} training points/routine | {} set-ups | serve {} jobs/s, deadline {} ms",
            workload::CAP_BYTES / 1048576.0,
            workload::L2_BYTES / 1048576.0,
            workload::N_TRAIN,
            SETUPS,
            workload::SERVE_RATE_JOBS_S,
            workload::SERVE_DEADLINE_MS
        ),
    ]
}
