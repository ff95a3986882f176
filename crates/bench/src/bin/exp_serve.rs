//! Closed-loop client/server serving benchmark over localhost TCP:
//! batch-size-1 vs micro-batched vs micro-batched+memo throughput of the
//! `mc-serve` front-end on a sharded flat-sq8 cache, emitting the
//! machine-readable `BENCH_serve.json`.
//!
//! ```text
//! exp_serve [--entries 10000] [--shards 16] [--conns 8] [--window 16]
//!           [--ops 2000] [--batch-max 64]
//!           [--json BENCH_serve.json | --no-json] [--quick]
//! ```
//!
//! `--quick` is the reduced CI smoke configuration; the defaults reproduce
//! the full measurement from the README's serving table.

use std::path::PathBuf;

use mc_bench::ServeBenchOpts;

fn main() {
    let mut opts = ServeBenchOpts::default();
    let mut batched_max = 128usize;
    let mut batched_max_explicit = false;
    let mut json: Option<PathBuf> = Some(PathBuf::from("BENCH_serve.json"));

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let int = |i: &mut usize, flag: &str| -> usize {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                })
                .parse()
                .unwrap_or_else(|_| {
                    eprintln!("{flag} must be an integer");
                    std::process::exit(2);
                })
        };
        match args[i].as_str() {
            "--entries" => opts.entries = int(&mut i, "--entries"),
            "--shards" => opts.shards = int(&mut i, "--shards"),
            "--conns" => opts.connections = int(&mut i, "--conns"),
            "--window" => opts.window = int(&mut i, "--window"),
            "--ops" => opts.ops_per_conn = int(&mut i, "--ops"),
            "--batch-max" => {
                batched_max = int(&mut i, "--batch-max");
                batched_max_explicit = true;
            }
            "--quick" => {
                opts = ServeBenchOpts {
                    entries: 2_000,
                    shards: 8,
                    connections: 4,
                    window: 8,
                    ops_per_conn: 400,
                };
                // Keep the batched cap at the reduced fleet's in-flight
                // total (4 x 8 = 32) so a busy batcher can fill batches.
                if !batched_max_explicit {
                    batched_max = 32;
                }
            }
            "--json" => {
                i += 1;
                json = Some(PathBuf::from(args.get(i).expect("--json needs a path")));
            }
            "--no-json" => json = None,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: exp_serve [--entries N] [--shards N] [--conns N] [--window N] \
                     [--ops N] [--batch-max N] \
                     [--json PATH | --no-json] [--quick]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    mc_bench::run_serve_with(&opts, batched_max, json.as_deref());
}
