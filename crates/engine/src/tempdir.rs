//! Scratch directories for the unit tests.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// `concord-<name>-<pid>` under the system temp dir: emptied when made,
/// removed when dropped, so a failing test cleans up too. It derefs to
/// its [`Path`]; the directory itself is created by whoever needs it.
pub(crate) struct TempDir(PathBuf);

impl TempDir {
    pub(crate) fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("concord-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
