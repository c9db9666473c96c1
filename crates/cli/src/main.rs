//! The `concord` binary: thin wrapper over [`concord_cli::run`].

use std::io::Write;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Stdout is line-buffered: one write per line of a violation list.
    // Buffer it whole; `serve` flushes after each answer itself.
    let mut stdout = std::io::BufWriter::new(std::io::stdout().lock());
    let code = concord_cli::run(&argv, &mut stdout);
    // `process::exit` runs no destructors, so flush before it.
    let _ = stdout.flush();
    std::process::exit(code);
}
