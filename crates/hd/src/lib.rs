//! One-stop facade over the PLASMA-HD workspace.
//!
//! PLASMA-HD (Probing the LAttice Structure and MAkeup of High-dimensional
//! Data) lets a user interactively probe the intrinsic connectivity and
//! clusterability of a high-dimensional dataset across the whole spectrum
//! of similarity thresholds. Applications (and the workspace `examples/`)
//! depend on this crate alone and reach every subsystem through a stable
//! module path:
//!
//! * [`data`] — sparse vectors, similarity measures, synthetic dataset
//!   generators, hashing, and statistics
//! * [`lsh`] — MinHash/SimHash sketches, banded candidate generation, and
//!   BayesLSH posterior inference (pruning + concentration)
//! * [`core`] — APSS probes, the (shareable, lock-striped, byte-bounded)
//!   knowledge cache with LRU eviction and registry-wide capacity limits,
//!   cumulative threshold curves, incremental estimates, and the
//!   interactive [`StreamingSession`](core::StreamingSession) driver
//! * [`graph`] — similarity-graph construction and structural measures
//!   (triangles, cores, components, communities, …)
//! * [`lam`] — lattice-structure mining and compression baselines
//! * [`growth`] — graph-growth sampling and forecasting
//! * [`parcoords`] — parallel-coordinates layout and rendering
//!
//! See `ARCHITECTURE.md` at the workspace root for how these crates map
//! onto the paper's sections and for the record → sketch → candidate →
//! decision → cue data flow.
//!
//! # Quick start
//!
//! The shortest useful loop — open a session, probe a threshold, let the
//! knowledge cache make the re-probe free:
//!
//! ```
//! use plasma_hd::core::{ApssConfig, StreamingSession};
//! use plasma_hd::data::datasets::gaussian::GaussianSpec;
//!
//! let ds = GaussianSpec::new("demo", 40, 6, 2).generate(7);
//! let mut session = StreamingSession::new(&ds, ApssConfig::default());
//!
//! let first = session.probe(0.8);           // pays for sketching
//! let again = session.probe(0.8);           // answered from the cache
//! assert_eq!(again.hashes_compared, 0);
//! assert_eq!(again.pairs, first.pairs);
//!
//! // The cache is shareable: further sessions over the same corpus skip
//! // sketching entirely and reuse every memoized pair comparison.
//! let cache = session.shared_cache().expect("probed above");
//! let mut colleague =
//!     StreamingSession::new(&ds, ApssConfig::default()).with_shared_cache(cache);
//! let shared = colleague.probe(0.8);
//! assert_eq!((shared.sketch_seconds, shared.hashes_compared), (0.0, 0));
//! ```
//!
//! For long-lived servers a cache registry bounds memory: count/byte
//! limits across datasets, enforced by dropping whole least-recently-used
//! caches, without ever changing probe outputs:
//!
//! ```
//! use plasma_hd::core::cache::{CacheRegistry, RegistryCapacity};
//!
//! let registry = CacheRegistry::with_capacity(
//!     RegistryCapacity::unbounded()
//!         .with_max_caches(64)
//!         .with_max_total_bytes(512 << 20), // 512 MiB across all datasets
//! );
//! assert!(registry.is_empty());
//! ```

pub use plasma_core as core;
pub use plasma_data as data;
pub use plasma_graph as graph;
pub use plasma_growth as growth;
pub use plasma_lam as lam;
pub use plasma_lsh as lsh;
pub use plasma_parcoords as parcoords;
