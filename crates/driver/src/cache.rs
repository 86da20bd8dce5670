//! The compiled-kernel cache.
//!
//! Serving the same stencil to many users means compiling once and executing
//! many times. The cache memoises [`PlannedKernel`]s — the generated kernel
//! AST *plus* its simulator execution plan — under a key of
//! (program fingerprint, variant name, bound tunable parameters, device
//! profile), so a second session compiling the same (benchmark, device,
//! config) triple reuses both the stored kernel and its plan instead of
//! re-running codegen or re-planning. Hit/compile counters are exposed so
//! tests — and future perf tracking — can assert cache behaviour.
//!
//! Launch-only parameters (work-group sizes) are deliberately *not* part of
//! the key: they never reach code generation or plan compilation, so every
//! launch shape of one bound program shares a single compiled kernel and
//! plan. This also accelerates tuning, where the tuner sweeps work-group
//! sizes far more often than it changes tunables — a variant is planned
//! once and simulated hundreds of times.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use lift_codegen::Kernel;
use lift_core::expr::FunDecl;
use lift_oclsim::PlannedKernel;

use crate::error::LiftError;

/// The cache key: everything that influences generated code — including
/// the kernel *function name*, which embeds the session's program name, so
/// two sessions that build the same program under different names never
/// share a kernel whose embedded `__kernel` name would be wrong for one of
/// them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Fingerprint of the (pre-binding) lowered program.
    pub program: u64,
    /// The generated kernel function name (`<program>_<variant>`).
    pub variant: String,
    /// Bound tunable parameter values, in declaration order.
    pub params: Vec<(String, i64)>,
    /// Device profile name.
    pub device: String,
}

/// Cache counters at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Kernels actually compiled (cache misses).
    pub compiles: u64,
    /// Lookups served from the cache.
    pub hits: u64,
}

/// A concurrent map from [`CacheKey`] to compiled (and planned) kernels.
#[derive(Debug, Default)]
pub struct KernelCache {
    map: Mutex<HashMap<CacheKey, Arc<PlannedKernel>>>,
    compiles: AtomicU64,
    hits: AtomicU64,
}

impl KernelCache {
    /// An empty cache (use [`KernelCache::global`] to share one per
    /// process).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache every session uses unless it installs its own
    /// via [`crate::DeviceSession::with_cache`].
    pub fn global() -> &'static KernelCache {
        static GLOBAL: OnceLock<KernelCache> = OnceLock::new();
        GLOBAL.get_or_init(KernelCache::new)
    }

    /// Returns the kernel for `key`, compiling it with `compile` on a miss.
    ///
    /// A miss also compiles the simulator execution plan eagerly, so every
    /// structural fault — including the plan-level ones
    /// (`UnboundVariable`, `TypeMismatch`) — surfaces here, at compile
    /// time, with the kernel name and statement context, rather than
    /// mid-simulation.
    ///
    /// Concurrency: compilation runs outside the lock (codegen can be slow
    /// and other keys should not wait on it), so two threads racing on the
    /// same key may both compile. The map is re-checked under the lock
    /// afterwards: exactly one insert wins and is counted in
    /// [`CacheStats::compiles`]; the loser discards its duplicate, counts
    /// as a hit, and — like every later caller — receives the *cached*
    /// `Arc`, so all holders of one key share one kernel and one plan.
    ///
    /// # Errors
    ///
    /// Propagates the compiler's (or plan compiler's) error on a miss; a
    /// failed compilation is not cached.
    pub fn get_or_compile(
        &self,
        key: CacheKey,
        compile: impl FnOnce() -> Result<Kernel, LiftError>,
    ) -> Result<Arc<PlannedKernel>, LiftError> {
        if let Some(hit) = self.lock().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        let kernel = Arc::new(PlannedKernel::new(compile()?));
        kernel.plan()?;
        match self.lock().entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                // Lost the race: another thread inserted while we compiled.
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(e.get().clone())
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.compiles.fetch_add(1, Ordering::Relaxed);
                Ok(e.insert(kernel).clone())
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
        }
    }

    /// Number of cached kernels.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache holds no kernels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached kernel and resets the counters.
    pub fn clear(&self) {
        self.lock().clear();
        self.compiles.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<CacheKey, Arc<PlannedKernel>>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A structural fingerprint of a program: FNV-1a over the printed surface
/// form (parameter types and body). The pretty printer writes parameter
/// *names*, not internal ids, so two independently-built copies of the same
/// program fingerprint identically — which is what lets a fresh session hit
/// the cache of an earlier one.
pub fn program_fingerprint(prog: &FunDecl) -> u64 {
    let mut h = Fnv::new();
    if let FunDecl::Lambda(l) = prog {
        for p in &l.params {
            h.write(p.name().as_bytes());
            h.write(b":");
            h.write(p.ty().to_string().as_bytes());
            h.write(b",");
        }
        h.write(l.body.to_string().as_bytes());
    } else {
        h.write(prog.to_string().as_bytes());
    }
    h.finish()
}

/// FNV-1a over one byte string (used for tuner seed derivation too).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(0x100000001b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_core::prelude::*;

    fn jacobi(n: usize) -> FunDecl {
        lam_named("A", Type::array(Type::f32(), n), |a| {
            let sum = lam(Type::array(Type::f32(), 3), |nbh| {
                reduce(add_f32(), Expr::f32(0.0), nbh)
            });
            map(sum, slide(3, 1, pad(1, 1, Boundary::Clamp, a)))
        })
    }

    #[test]
    fn fingerprint_is_stable_across_reconstruction() {
        assert_eq!(
            program_fingerprint(&jacobi(32)),
            program_fingerprint(&jacobi(32))
        );
        assert_ne!(
            program_fingerprint(&jacobi(32)),
            program_fingerprint(&jacobi(64))
        );
    }

    #[test]
    fn second_lookup_hits_without_compiling() {
        let cache = KernelCache::new();
        let key = CacheKey {
            program: 1,
            variant: "global".into(),
            params: vec![("TS0".into(), 4)],
            device: "test".into(),
        };
        let compile = || {
            let prog = lam_named("A", Type::array(Type::f32(), 8), |a| map_glb(0, id(), a));
            lift_codegen::compile_kernel("k", &prog).map_err(Into::into)
        };
        let a = cache
            .get_or_compile(key.clone(), compile)
            .expect("compiles");
        assert_eq!(
            cache.stats(),
            CacheStats {
                compiles: 1,
                hits: 0
            }
        );
        let b = cache
            .get_or_compile(key, || panic!("must not recompile"))
            .expect("hits");
        assert_eq!(
            cache.stats(),
            CacheStats {
                compiles: 1,
                hits: 1
            }
        );
        assert!(Arc::ptr_eq(&a, &b), "the very same kernel is shared");
    }

    #[test]
    fn racing_compiles_count_once_and_share_the_cached_kernel() {
        // N threads demand the same key simultaneously. Some may compile a
        // duplicate, but exactly one insert wins, the counters stay exact
        // (compiles == 1, everything else a hit) and every caller holds
        // the very same Arc — under concurrent tuning a divergent kernel
        // per thread would defeat both the counters and the sharing.
        use std::sync::Barrier;
        const N: usize = 8;
        let cache = KernelCache::new();
        let key = CacheKey {
            program: 3,
            variant: "global".into(),
            params: vec![],
            device: "test".into(),
        };
        let barrier = Barrier::new(N);
        let kernels: Vec<Arc<PlannedKernel>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache
                            .get_or_compile(key.clone(), || {
                                let prog = lam_named("A", Type::array(Type::f32(), 8), |a| {
                                    map_glb(0, id(), a)
                                });
                                lift_codegen::compile_kernel("k", &prog).map_err(Into::into)
                            })
                            .expect("compiles")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = cache.stats();
        assert_eq!(stats.compiles, 1, "only the winning insert is counted");
        assert_eq!(stats.hits, (N - 1) as u64, "losers and late-comers hit");
        assert_eq!(cache.len(), 1);
        for k in &kernels[1..] {
            assert!(
                Arc::ptr_eq(&kernels[0], k),
                "every caller must hold the cached kernel"
            );
        }
    }

    #[test]
    fn distinct_params_are_distinct_entries() {
        let cache = KernelCache::new();
        let mk = |ts| CacheKey {
            program: 9,
            variant: "tiled".into(),
            params: vec![("TS0".into(), ts)],
            device: "test".into(),
        };
        let compile = || {
            let prog = lam_named("A", Type::array(Type::f32(), 8), |a| map_glb(0, id(), a));
            lift_codegen::compile_kernel("k", &prog).map_err(Into::into)
        };
        cache.get_or_compile(mk(4), compile).unwrap();
        cache.get_or_compile(mk(6), compile).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().compiles, 2);
    }
}
