//! The repo's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run \
//!     [--workload W] [--seed 11] [--seconds 15] [--trace 0|1] [--smoke]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- repeat [--seed 11] [--smoke]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json
//! ```

mod driver;
mod host;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use trace::Tracer;
use workloads::{Ctx, Emitter};

/// Environment variables that would silently change what is measured: the
/// crates read them as configuration defaults.
const FORBIDDEN_ENV: [&str; 3] = ["SAMPLE_BLOCK", "RENDER_THREADS", "CICERO_SIMD"];

fn usage(msg: &str) -> ! {
    eprintln!("benchmark: {msg}");
    eprintln!(
        "usage: run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      repeat [--seed N] [--seconds S] [--smoke]\n\
         \x20      spec"
    );
    std::process::exit(2);
}

struct Args {
    workload: Option<String>,
    ctx: Ctx,
}

fn parse(mut it: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        workload: None,
        ctx: Ctx {
            seed: 11,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
            smoke: false,
        },
    };
    let mut seconds_given = false;
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("missing value for {flag}")))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value();
                if !spec::WORKLOADS.iter().any(|k| k.name == w) {
                    usage(&format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.ctx.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a u64"))
            }
            "--seconds" => {
                args.ctx.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"));
                seconds_given = true;
            }
            "--trace" => {
                args.ctx.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => args.ctx.smoke = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.ctx.smoke && !seconds_given {
        args.ctx.seconds = 1.0;
    }
    args
}

/// The commit of the checkout this was built from, read from `.git` without
/// running anything; a checkout that is not a repository has none.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn print_header(ctx: &Ctx) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# cicero-benchmark seed={} seconds={} trace={} smoke={} host_cores={} simd={} lanes={} sample_block={} serve_budget=0 commit={}",
        ctx.seed,
        ctx.seconds,
        ctx.trace as u8,
        ctx.smoke,
        cores,
        cicero_field::simd::backend(),
        workloads::LANES,
        workloads::SAMPLE_BLOCK,
        commit()
    );
}

fn child(workload: &str, ctx: &Ctx) -> i32 {
    let mut tr = Tracer::new(ctx.trace);
    let mut out = Emitter::default();
    match workload {
        spec::FULL_FRAME => workloads::full_frame::run(ctx, &mut tr, &mut out),
        spec::WARP_STREAM => workloads::warp_stream::run(ctx, &mut tr, &mut out),
        spec::SIM_FIGURES => workloads::sim_figures::run(ctx, &mut tr, &mut out),
        spec::SERVE_LADDER => workloads::serve_ladder::run(ctx, &mut tr, &mut out),
        other => usage(&format!("unknown workload {other:?}")),
    }
    if ctx.trace {
        for (name, t) in trace::totals(tr.spans()) {
            println!(
                "# span {name}: {} calls, {:.3} ms total, {:.3} ms self",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace_{workload}.json"));
        match tr.write_json(&path, workload) {
            Ok(()) => out.header(
                "trace",
                format_args!("{} spans in {}", tr.spans().len(), path.display()),
            ),
            Err(e) => out.check("trace_written", false, e),
        }
    }
    (out.failed_checks() > 0) as i32
}

fn main() {
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("benchmark: {var} is set; it would change what is measured. Unset it.");
            std::process::exit(2);
        }
    }
    let mut argv = std::env::args().skip(1);
    let status = match argv.next().as_deref() {
        Some("run") => {
            let args = parse(argv);
            print_header(&args.ctx);
            driver::run(args.workload.as_deref(), &args.ctx)
        }
        Some("repeat") => {
            let args = parse(argv);
            print_header(&args.ctx);
            driver::repeat(&args.ctx)
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            0
        }
        Some("child") => {
            let args = parse(argv);
            let workload = args
                .workload
                .unwrap_or_else(|| usage("child needs --workload"));
            child(&workload, &args.ctx)
        }
        _ => usage("expected run, repeat or spec"),
    };
    std::process::exit(status);
}
