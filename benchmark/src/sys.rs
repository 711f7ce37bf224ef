//! Process accounting, pre-flight checks, provenance and temp-file hygiene.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux ABI).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Process-wide `(user, system)` CPU seconds so far, all threads included
/// (also threads that already exited).
pub fn cpu_seconds() -> Result<(f64, f64), String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat)
        .map(|(user, sys)| (user / CLOCK_TICKS_PER_S, sys / CLOCK_TICKS_PER_S))
        .ok_or_else(|| "unexpected /proc/self/stat layout".to_string())
}

/// `(utime, stime)` — fields 14 and 15 — of a `/proc/<pid>/stat` line.  The
/// command name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<(f64, f64)> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let user = fields.next()?.parse().ok()?;
    let sys = fields.next()?.parse().ok()?;
    Some((user, sys))
}

/// Total CPU seconds (user + system) so far.
pub fn cpu_total_seconds() -> Result<f64, String> {
    cpu_seconds().map(|(user, sys)| user + sys)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Free bytes on the file system holding `dir`, via `df -Pk` (the standard
/// library has no `statvfs`).  `None` when `df` is unavailable or prints
/// something unexpected — the caller then skips the check.
fn free_disk_bytes(dir: &Path) -> Option<u64> {
    let output = Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let available_kb: u64 = text
        .lines()
        .nth(1)?
        .split_ascii_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(available_kb * 1024)
}

/// Refuses to measure on a machine that cannot give meaningful numbers:
/// every workload runs 2 workers, and set-up writes the store file.
pub fn preflight(out_dir: &Path) -> Result<(), String> {
    const MIN_FREE_BYTES: u64 = 1 << 30;
    if nproc() < 2 {
        return Err(format!(
            "refusing to run: {} core available, every workload needs 2 (workers = 2)",
            nproc()
        ));
    }
    match free_disk_bytes(out_dir) {
        Some(free) if free < MIN_FREE_BYTES => Err(format!(
            "refusing to run: {} MiB free under {}, need 1 GiB",
            free >> 20,
            out_dir.display()
        )),
        _ => Ok(()),
    }
}

/// `rustc -V`, or `"unknown"`.
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// without spawning git; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |path: PathBuf| std::fs::read_to_string(path).ok();
    let Some(head) = read(PathBuf::from(".git/HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => read(Path::new(".git").join(reference))
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string()),
    }
}

/// A file removed when the guard drops — on normal exit, on an early
/// `Err` return and while a panic unwinds.
#[derive(Debug)]
pub struct TempFile(PathBuf);

impl TempFile {
    pub fn new(path: PathBuf) -> Self {
        TempFile(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        // Absent already (never written, or removed early) is fine.
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Scratch directory for unit tests: the same git-ignored `benchmark/out`
/// the real runs use, so tests leave nothing outside the repository.
#[cfg(test)]
pub fn test_out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let line = "4242 (a b) c)) S 1 2 3 4 5 6 7 8 9 10 777 33 0 0 20 0 3 0 99 1 2";
        assert_eq!(parse_cpu_ticks(line), Some((777.0, 33.0)));
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn proc_readers_work_on_this_machine() {
        let (user, sys) = cpu_seconds().unwrap();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn temp_file_is_removed_on_drop_and_on_unwind() {
        let path = test_out_dir().join(format!("tempfile_test_{}", std::process::id()));
        std::fs::write(&path, b"x").unwrap();
        drop(TempFile::new(path.clone()));
        assert!(!path.exists());

        std::fs::write(&path, b"x").unwrap();
        let unwound = std::panic::catch_unwind(|| {
            let _guard = TempFile::new(path.clone());
            panic!("failure while the file exists");
        });
        assert!(unwound.is_err());
        assert!(!path.exists());
    }
}
