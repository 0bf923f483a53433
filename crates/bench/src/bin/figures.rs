//! `figures <entry>... | all` — regenerates the paper's figures and tables
//! and checks what it prints: each entry's table is followed by one JSON
//! line per claim, and the process exits non-zero when an unpinned claim
//! fails or a pinned claim holds. Entry names are the only arguments.

use tvm_bench::entries::{ENTRIES, PINS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(tvm_bench::claims::run(&args, ENTRIES, PINS));
}
