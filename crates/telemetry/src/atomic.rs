//! The single crash-safe write protocol every durable artifact in the
//! workspace goes through: write a hidden sibling tmp file, fsync it,
//! atomically rename over the destination, fsync the directory.
//!
//! A crash before the rename leaves the destination untouched (at
//! worst a stray `.name.tmp-<pid>` sibling); a crash after the rename
//! leaves the complete new file. No interleaving exposes a partial
//! write under the destination name — which is what lets the store
//! loader treat a half-written file as *impossible* rather than merely
//! unlikely, and classify a missing destination as the torn-rename
//! crash window.
//!
//! [`write_atomic`] runs the whole protocol over one buffer; the access
//! log ([`crate::AccessLogWriter`]) stages into [`staging_path`] over
//! its lifetime and lands with [`commit`].

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The hidden sibling path a crash-safe write of `path` stages into.
pub fn staging_path(path: &Path) -> io::Result<PathBuf> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("path has no file name: {}", path.display()),
        )
    })?;
    let tmp_name = format!(".{}.tmp-{}", name.to_string_lossy(), std::process::id());
    Ok(match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent.join(tmp_name),
        _ => PathBuf::from(tmp_name),
    })
}

/// Lands a fully written staging file: `sync_all` → atomic rename of
/// `staging` over `path` → best-effort directory fsync.
pub fn commit(file: File, staging: &Path, path: &Path) -> io::Result<()> {
    file.sync_all()?;
    fs::rename(staging, path)?;
    // Durability of the *name* needs the directory entry flushed too.
    // Best-effort: some filesystems refuse directory fsync, and the
    // rename itself was already atomic.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Durably replaces `path` with `bytes`: sibling tmp → `write_all` →
/// [`commit`]. On any failure the staging file is removed and the
/// destination is left exactly as it was.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = staging_path(path)?;
    let staged = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        commit(file, &tmp, path)
    })();
    if staged.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    staged
}
