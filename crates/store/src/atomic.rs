//! The crash-safe write protocol, re-exported from
//! [`borges_telemetry::atomic`] — the lowest crate both the store and
//! the access log depend on, so the workspace keeps one copy of it.
//! Every store artifact and CLI output goes through [`write_atomic`].

pub use borges_telemetry::atomic::{staging_path, write_atomic};

#[cfg(test)]
use std::fs;
#[cfg(test)]
use std::path::{Path, PathBuf};

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "borges-store-atomic-{}-{}",
            std::process::id(),
            name
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_overwrites() {
        let dir = scratch("writes");
        let path = dir.join("artifact.bin");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer contents");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leaves_no_staging_file_behind() {
        let dir = scratch("staging");
        let path = dir.join("artifact.bin");
        write_atomic(&path, b"payload").unwrap();
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["artifact.bin".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_preserves_destination() {
        let dir = scratch("failure");
        let path = dir.join("artifact.bin");
        write_atomic(&path, b"survives").unwrap();
        // A destination whose parent vanished mid-flight: writing to a
        // non-directory parent must fail without touching the original.
        let bogus = path.join("child-of-a-file");
        assert!(write_atomic(&bogus, b"nope").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bare_file_name_works() {
        let dir = scratch("cwd");
        let path = dir.join("bare.bin");
        write_atomic(&path, b"x").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"x");
        assert!(staging_path(Path::new("bare.bin"))
            .unwrap()
            .to_string_lossy()
            .starts_with(".bare.bin.tmp-"));
        let _ = fs::remove_dir_all(&dir);
    }
}
