//! `perfbench --workload figures|cell|serve --seed N --seconds S --trace 0|1
//!  --server-bin PATH [--root DIR] [--record]`
//!
//! Runs one workload, prints a host label, notes and every metric with
//! its unit, then one JSON result line. Exits 1 when an output check
//! fails or a metric could not be measured, 2 on a usage error.

use perfbench::clock::calibrate_read_ns;
use perfbench::host::Host;
use perfbench::output::{END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Ctx};
use perfbench::HELD_OUT_SEED;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    root: PathBuf,
    record: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: PathBuf::new(),
        root: PathBuf::from("."),
        record: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} wants a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds wants a number in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--server-bin" => a.server_bin = PathBuf::from(value()?),
            "--root" => a.root = PathBuf::from(value()?),
            "--record" => a.record = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !["figures", "cell", "serve"].contains(&a.workload.as_str()) {
        return Err("--workload wants figures, cell or serve".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = args.root.join(".perfbench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    if !args.server_bin.is_file() {
        eprintln!(
            "perfbench: no server executable at {}",
            args.server_bin.display()
        );
        return ExitCode::from(1);
    }
    let host = Host::probe(&args.root);
    println!("host {}", host.to_json().to_string_compact());
    println!(
        "workload {} seed {} held_out_seed {HELD_OUT_SEED} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc: host.nproc,
        out_dir,
        server_bin: args.server_bin.clone(),
        read_ns: calibrate_read_ns(),
    };
    let report = match args.workload.as_str() {
        "figures" => Ok(workloads::figures::run(&ctx, args.trace)),
        "cell" => Ok(workloads::cell::run(&ctx, args.trace)),
        _ => workloads::serve::run(&ctx, args.trace),
    };
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    report.metrics.set("bench.clock_read_ns", ctx.read_ns);

    let ref_path = args.root.join("perfbench").join("reference.json");
    let mut refs = match workloads::load_references(&ref_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if !report.digests.is_empty() {
        let (bad, note) =
            workloads::check_references(&refs, &args.workload, args.seed, &report.digests);
        report.tally.mismatch += bad;
        report.notes.push(note);
        if args.record && report.tally.failed() == 0 {
            refs.entry(args.workload.clone())
                .or_default()
                .insert(args.seed.to_string(), report.digests.clone());
            if let Err(e) = std::fs::write(&ref_path, workloads::references_to_string(&refs)) {
                eprintln!("perfbench: cannot write {}: {e}", ref_path.display());
                return ExitCode::from(1);
            }
        }
    }

    for n in &report.notes {
        println!("{n}");
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    print!("{}", report.metrics.table(wanted));
    let t = &report.tally;
    println!(
        "fail_frac {:.6} ({} of {} operations failed: {} non-2xx, {} transport, {} output mismatch)",
        t.fail_frac(),
        t.failed(),
        t.attempted,
        t.status,
        t.transport,
        t.mismatch
    );
    let missing = report.metrics.missing(wanted);
    if !missing.is_empty() {
        eprintln!("perfbench: not measured: {}", missing.join(", "));
        return ExitCode::from(1);
    }
    let correct = t.failed() == 0 && t.attempted > 0;
    println!(
        "{}",
        report
            .metrics
            .result_line(wanted, correct, t.attempted.max(1), t.failed())
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
