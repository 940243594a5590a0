//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` prints a report line and, last, the result line.
//! `perfbench --make-reference` prints the suite's native-optimizer
//! digests at SCALE 1 (the contents of `reference/suite_scale1.tsv`).

use perfbench::check;
use perfbench::run::{Config, Workload};
use perfbench::sys;
use perfbench::system::build_catalogs;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <serve-hot|write-mix|suite-cold> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --make-reference";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config::new(workload, seed, seconds, trace))
}

fn make_reference() -> Result<(), String> {
    let templates = check::templates();
    let [h, ds] = build_catalogs(check::REFERENCE_SCALE);
    let engines = [mylite::Engine::new(h), mylite::Engine::new(ds)];
    let digests = check::native_digests(&templates, &engines).map_err(|e| e.to_string())?;
    print!("{}", check::reference_text(&templates, &digests));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--make-reference") {
        return match make_reference() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `Config::new` read `nproc` already. Pin before any thread exists, so
    // the servers' threads inherit the mask.
    cfg.pinned_cpu = sys::pin_to_one_cpu();
    match perfbench::run::run(&cfg) {
        Ok(out) => {
            println!("{}", out.report_line(cfg.workload.name()));
            println!("{}", out.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
