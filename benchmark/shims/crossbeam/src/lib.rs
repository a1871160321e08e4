//! Stand-in for `crossbeam::thread::scope`, the only part of crossbeam the
//! metamess crates call, over `std::thread::scope`.

pub mod thread {
    use std::any::Any;

    pub type Result<T> = std::result::Result<T, Box<dyn Any + Send + 'static>>;

    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> Result<T> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle { inner: inner.spawn(move || f(&Scope { inner })) }
        }
    }

    /// Runs `f` with a scope whose threads are all joined before this
    /// returns. A panic in a thread that was not joined by hand propagates
    /// as a panic (std's behaviour) instead of an `Err`.
    pub fn scope<'env, F, R>(f: F) -> Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}
