//! walsmoke — crash-recovery smoke test for the durable chain store.
//!
//! The parent process spawns *itself* with `--child`: the child opens
//! a [`ChainStore`] in a scratch directory and appends blocks in a
//! tight loop, periodically `sync()`ing the WAL and reporting the last
//! durable height on stdout. Once the parent has seen enough durable
//! progress it SIGKILLs the child mid-load — no flush, no unwind —
//! then reopens the same store and asserts the crash contract:
//!
//! * the store opens cleanly (torn WAL tails are truncated, never
//!   propagated as errors),
//! * the archive on disk passes full verification, streamed from
//!   genesis ([`ChainStore::verify`]), and ends at the recovered tip,
//! * the recovered height is at least the last height the child
//!   reported as synced (durability), and at most the last height the
//!   child reported as appended (no invented blocks).
//!
//! Exit status 0 means the contract held; any panic means it did not.
//! CI runs this as the crash-recovery gate.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p curb-bench --bin walsmoke -- \
//!     [--min-synced 200] [--dir /tmp/walsmoke]
//! ```

use curb_bench::{arg_flag, arg_value};
use curb_chain::{Block, RequestKind, Transaction};
use curb_cluster::{ChainStore, PersistConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const GENESIS: &[u8] = b"walsmoke-genesis";

/// Child mode: append blocks forever, syncing every `SYNC_EVERY`
/// appends and reporting progress as `appended <h>` / `synced <h>`
/// lines. The parent kills this process; it never exits on its own.
fn run_child(dir: PathBuf) -> ! {
    const SYNC_EVERY: u64 = 25;
    let mut store = ChainStore::open(PersistConfig::new(dir), GENESIS).expect("child: open store");
    let stdout = std::io::stdout();
    loop {
        let height = store.height();
        let tx = Transaction::new(
            RequestKind::PacketIn,
            height % 7,
            height % 3,
            height.to_be_bytes().repeat(8),
        );
        let block = Block::next(store.tip(), vec![tx], height + 1);
        store.append(block).expect("child: append");
        let mut out = stdout.lock();
        let _ = writeln!(out, "appended {}", store.height());
        if store.height().is_multiple_of(SYNC_EVERY) {
            store.sync().expect("child: sync");
            let _ = writeln!(out, "synced {}", store.height());
        }
        let _ = out.flush();
    }
}

fn main() {
    if arg_flag("child") {
        let dir = arg_value("dir").expect("--child requires --dir");
        run_child(PathBuf::from(dir));
    }

    let min_synced: u64 = arg_value("min-synced")
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let dir = arg_value("dir").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("curb-walsmoke-{}", std::process::id()))
    });
    // A previous run's leftovers would make "recovered height" lie.
    let _ = std::fs::remove_dir_all(&dir);

    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(exe)
        .args(["--child", "--dir"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn child writer");
    let child_out = BufReader::new(child.stdout.take().expect("child stdout"));

    // Track the child's progress until enough synced height has
    // accumulated, then kill it mid-append without any warning.
    let mut last_appended = 0u64;
    let mut last_synced = 0u64;
    for line in child_out.lines() {
        let line = line.expect("read child progress");
        let mut parts = line.split_whitespace();
        let (kind, height) = (
            parts.next().unwrap_or(""),
            parts.next().and_then(|h| h.parse::<u64>().ok()),
        );
        match (kind, height) {
            ("appended", Some(h)) => last_appended = h,
            ("synced", Some(h)) => last_synced = h,
            _ => panic!("unexpected child output: {line:?}"),
        }
        // Kill only once the child is a few appends past its last
        // sync, so the crash leaves a genuinely unsynced WAL tail.
        if last_synced >= min_synced && last_appended > last_synced + 5 {
            break;
        }
    }
    child.kill().expect("SIGKILL child");
    let _ = child.wait();
    assert!(
        last_synced >= min_synced,
        "child exited before reaching min synced height {min_synced} \
         (synced {last_synced}, appended {last_appended})"
    );

    // Reopen the store the crash left behind and check the contract.
    let store =
        ChainStore::open(PersistConfig::new(dir.clone()), GENESIS).expect("reopen crashed store");
    let recovered = store.height();
    let verified = store.verify().expect("recovered archive verifies");
    assert_eq!(verified, recovered, "the archive ends at the recovered tip");
    assert!(
        recovered >= last_synced,
        "synced prefix lost: recovered height {recovered} < last synced {last_synced}"
    );
    assert!(
        recovered <= last_appended,
        "recovered height {recovered} beyond anything appended ({last_appended})"
    );
    println!(
        "{{\"recovered_height\":{},\"last_synced\":{},\"last_appended\":{},\
         \"wal_replayed\":{}}}",
        recovered,
        last_synced,
        last_appended,
        store.recovery().wal_replayed
    );
    let _ = std::fs::remove_dir_all(&dir);
}
