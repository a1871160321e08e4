//! Cooperative shutdown: one shared flag, optionally tied to signals.
//!
//! The accept loop stops taking connections once the flag is set; workers
//! finish the request they are on, drain whatever is already queued, and
//! exit. Signal handlers do nothing but set the flag (the only
//! async-signal-safe thing worth doing), so `SIGTERM` / ctrl-c get the
//! same graceful drain as a programmatic [`ShutdownHandle::trigger`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cloneable handle that requests (and observes) shutdown.
#[derive(Debug, Clone, Default)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// A fresh, un-triggered handle.
    pub fn new() -> ShutdownHandle {
        ShutdownHandle::default()
    }

    /// Requests shutdown. Idempotent; safe from any thread.
    pub fn trigger(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    /// Routes `SIGINT` and `SIGTERM` to this handle. On non-Unix platforms
    /// this is a no-op (the programmatic trigger still works). Installing
    /// pins one clone of the flag for the process lifetime; later installs
    /// re-point the signals at the first installed handle.
    pub fn install_signal_handlers(&self) {
        sys::install(self.0.clone());
    }
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    // The flag a signal handler flips. Signal handlers cannot carry state,
    // so the first installed handle is pinned here for the process
    // lifetime.
    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work: one atomic store.
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }

    extern "C" {
        // Return value (the previous handler) is deliberately opaque: it
        // may be SIG_DFL/SIG_IGN, which are not valid function pointers.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    pub fn install(flag: Arc<AtomicBool>) {
        let _ = FLAG.set(flag);
        // SAFETY: installing a handler that only stores an atomic is
        // async-signal-safe; `signal` itself takes plain integers and a
        // C-ABI function pointer.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    pub fn install(_flag: Arc<AtomicBool>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_is_seen_by_clones() {
        let a = ShutdownHandle::new();
        let b = a.clone();
        assert!(!b.is_shutdown());
        a.trigger();
        assert!(b.is_shutdown());
        a.trigger(); // idempotent
        assert!(a.is_shutdown());
    }
}
