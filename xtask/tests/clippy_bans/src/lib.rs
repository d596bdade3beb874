//! Exactly one use per path in the workspace's `clippy.toml`, each on a
//! line ending in `// banned`. Dropping an entry from `clippy.toml` leaves
//! its use unflagged, so the error count falls short and CI fails.

use std::thread::{Builder, Scope};

pub fn types() {
    let _ = std::collections::HashMap::<u8, u8>::new(); // banned
    let _ = std::collections::HashSet::<u8>::new(); // banned
    let _ = std::time::Instant::now(); // banned
    let _ = std::time::SystemTime::now(); // banned
    let _ = std::sync::Mutex::new(0u8); // banned
    let _ = std::sync::RwLock::new(0u8); // banned
}

pub fn methods<'scope>(scope: &'scope Scope<'scope, '_>) {
    let _ = std::thread::spawn(|| {}); // banned
    std::thread::scope(|_| {}); // banned
    std::thread::sleep(std::time::Duration::ZERO); // banned
    let _ = Builder::new().spawn(|| {}); // banned
    let _ = Builder::new().spawn_scoped(scope, || {}); // banned
}
