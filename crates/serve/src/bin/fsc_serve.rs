//! `fsc-serve` — the persistent compile daemon.
//!
//! ```text
//! fsc-serve --socket /tmp/fsc.sock [--workers N] [--queue N]
//!           [--deadline-ms N] [--brownout L] [--mem-budget BYTES[K|M|G]]
//! ```

use std::path::PathBuf;
use std::time::Duration;

use fsc_serve::{Server, ServerConfig};

/// Parse a byte count with an optional K/M/G suffix (powers of 1024).
fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, shift) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 10),
        'm' | 'M' => (&s[..s.len() - 1], 20),
        'g' | 'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(1u64 << shift))
        .filter(|&b| b > 0)
}

fn usage() -> ! {
    eprintln!(
        "usage: fsc-serve [--socket PATH] [--workers N] [--queue N]\n\
         \x20                [--deadline-ms N] [--brownout L] [--mem-budget BYTES[K|M|G]]\n\
         \n\
         Starts the compile server on a Unix socket (default: fsc-serve.sock\n\
         in the system temp directory) and serves line-delimited JSON\n\
         requests until a client sends {{\"op\":\"shutdown\"}}.\n\
         \n\
         --deadline-ms  default compile/run budget for requests without\n\
         \x20              their own deadline_ms (E0803 on overrun)\n\
         --brownout     queue-occupancy fraction (e.g. 0.8) at which\n\
         \x20              requests compile on the reduced rung\n\
         --mem-budget   server-wide run-memory budget (e.g. 256M); every\n\
         \x20              run request reserves its attested estimate or is\n\
         \x20              answered E0806 after squeeze + bounded park"
    );
    std::process::exit(2);
}

fn main() {
    let mut socket: Option<PathBuf> = None;
    let mut config = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket"))),
            "--workers" => config.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue" => config.queue_depth = value("--queue").parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms").parse().unwrap_or_else(|_| usage());
                config.default_deadline = Duration::from_millis(ms.max(1));
            }
            "--mem-budget" => {
                let spec = value("--mem-budget");
                config.mem_budget = Some(parse_bytes(&spec).unwrap_or_else(|| {
                    eprintln!("error: bad --mem-budget '{spec}' (expected BYTES[K|M|G])");
                    usage()
                }));
            }
            "--brownout" => {
                config.brownout_l2 = value("--brownout").parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument '{other}'");
                usage();
            }
        }
    }

    let socket = socket.unwrap_or_else(|| std::env::temp_dir().join("fsc-serve.sock"));

    let mut server = match Server::start(&socket, config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: could not bind {}: {e}", socket.display());
            std::process::exit(1);
        }
    };
    println!(
        "fsc-serve listening on {} ({} workers, queue depth {})",
        server.socket_path().display(),
        config.workers,
        config.queue_depth
    );

    while server.running() {
        std::thread::sleep(Duration::from_millis(100));
    }
    server.stop();
    println!("fsc-serve: drained and stopped");
}
