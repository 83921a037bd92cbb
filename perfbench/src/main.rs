//! `tora-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, the output checks, a report
//! line with the machine fingerprint and sample counts, and as the last line
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. Exits
//! non-zero, printing no result, when an argument is invalid or the run
//! cannot complete. The traced run also writes its spans to
//! `.bench_out/<workload>.spans.jsonl`.

use serde_json::Value;
use tora_perfbench::{jstr, obj, run, Options, Outcome, Scale, Workload};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::PaperFig5,
        seed: 1,
        seconds: 35.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--tiny" {
            opts.scale = Scale::Tiny;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
        i += 2;
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn report(opts: &Options, out: &Outcome) -> Value {
    let metric = |m: &tora_perfbench::Metric| {
        (
            m.name.clone(),
            obj([("value", Value::Float(m.value)), ("unit", jstr(m.unit))]),
        )
    };
    obj([
        ("workload", jstr(opts.workload.name())),
        ("seed", Value::UInt(opts.seed)),
        ("seconds", Value::Float(opts.seconds)),
        ("trace", Value::Bool(opts.trace)),
        ("machine", tora_perfbench::measure::fingerprint()),
        (
            "samples",
            Value::Object(
                out.samples
                    .iter()
                    .map(|(k, n)| (k.clone(), Value::UInt(*n)))
                    .collect(),
            ),
        ),
        (
            "extra",
            Value::Object(out.extra.iter().map(metric).collect()),
        ),
        (
            "notes",
            Value::Array(out.notes.iter().cloned().map(jstr).collect()),
        ),
        (
            "checks",
            Value::Object(
                out.checks
                    .iter()
                    .map(|c| {
                        (
                            c.name.to_string(),
                            obj([
                                ("ok", Value::Bool(c.ok)),
                                ("detail", jstr(c.detail.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tora-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tora-perfbench: {} failed: {e}", opts.workload.name());
            std::process::exit(1);
        }
    };
    for m in out.metrics.iter().chain(&out.extra) {
        println!("{m}");
    }
    for c in &out.checks {
        println!(
            "check {:<20} {} {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    for n in &out.notes {
        println!("note {n}");
    }
    if opts.trace {
        let path = std::path::Path::new(".bench_out")
            .join(format!("{}.spans.jsonl", opts.workload.name()));
        if let Err(e) = out.spans.write_jsonl(&path) {
            eprintln!("tora-perfbench: cannot write spans: {e}");
            std::process::exit(1);
        }
        for (name, (n, total, own)) in out.spans.summary() {
            println!("span {name:<28} calls {n:>9} total {total:>12.6} s  self {own:>12.6} s");
        }
    }
    let to_line =
        |v: &Value| serde_json::to_string(v).expect("a report of finite numbers serializes");
    println!("report {}", to_line(&report(&opts, &out)));
    let metrics = Value::Object(
        out.metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj([("value", Value::Float(m.value)), ("unit", jstr(m.unit))]),
                )
            })
            .collect(),
    );
    let result = obj([
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::UInt(out.attempted)),
        ("failed", Value::UInt(out.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", to_line(&result));
}
