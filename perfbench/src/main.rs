//! Command-line entry point: runs one workload and prints every metric by
//! name with its unit, then the one-line JSON result. Exits 1 when a
//! correctness gate fails and 2 on bad arguments. The full record and, for
//! the traced run, the spans are written under `perfbench/out/`.

use culda_perfbench::{run, trace::Tracer, Args, USAGE};
use std::path::Path;

const OUT_DIR: &str = "perfbench/out";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let outcome = run(&args, &mut tracer);
    print!("{}", outcome.render_text());

    let stem = format!(
        "{}-seed{}-{}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    let mut files = vec![(format!("{stem}.json"), outcome.render_record())];
    if args.trace {
        for (name, t) in tracer.totals() {
            println!(
                "span {name}: n={} total {:.6} s, self {:.6} s",
                t.count, t.total_s, t.self_s
            );
        }
        files.push((format!("{stem}.trace.json"), tracer.to_chrome_json()));
    }
    let dir = Path::new(OUT_DIR);
    for (name, body) in files {
        let path = dir.join(name);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.render_json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
