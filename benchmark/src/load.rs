//! The load generator: a seeded PRNG, a zipf sampler and the transaction
//! templates every client executes.
//!
//! Templates are generated before any timing starts, from
//! `(seed, workload, client)` alone, so the program under test receives the
//! same inputs on both sides of any comparison. Nothing here comes from
//! `mvtl-workload`: that crate is a program-side harness a later change may
//! rewrite, and the benchmark must not move with it.

/// SplitMix64: tiny, seedable, and good enough for key sampling.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for our `n`).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }
}

/// The PRNG seed of one client's template stream: the run seed mixed with the
/// workload name (FNV-1a) and the client index, so streams are independent.
pub fn stream_seed(seed: u64, workload: &str, client: u32) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in workload.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut rng = Rng::new(seed ^ h ^ (u64::from(client) << 56));
    rng.next_u64()
}

/// Zipf over ranks `0..n` with exponent `theta`: P(rank r) ∝ 1/(r+1)^theta.
/// Sampled by inverting a precomputed CDF, which is exact and — for the key
/// counts used here (≤ 4096) — a 12-step binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut sum = 0.0;
        for rank in 0..n {
            sum += 1.0 / f64::from(rank + 1).powf(theta);
            cdf.push(sum);
        }
        for p in &mut cdf {
            *p /= sum;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|p| *p <= u);
        rank.min(self.cdf.len() - 1) as u32
    }
}

/// How keys are drawn. Rank `r` of the zipf maps to dense key `r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    Uniform,
    Zipf(f64),
}

/// The shape of one workload's transactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Load {
    /// Dense keys `0..keys`, all preloaded.
    pub keys: u32,
    pub dist: KeyDist,
    /// Operations per transaction.
    pub ops: usize,
    /// Each operation is a write with this probability (percent).
    pub write_pct: u32,
}

/// Flag bit marking a template operation as a write; the rest is the key.
pub const WRITE: u32 = 1 << 31;

/// A client's template pool: `count` transactions of `ops` operations each,
/// stored flat. Clients cycle through the pool for as long as a phase lasts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Templates {
    ops_per_txn: usize,
    ops: Vec<u32>,
}

impl Templates {
    pub fn generate(load: &Load, seed: u64, workload: &str, client: u32, count: usize) -> Self {
        let mut rng = Rng::new(stream_seed(seed, workload, client));
        let zipf = match load.dist {
            KeyDist::Uniform => None,
            KeyDist::Zipf(theta) => Some(Zipf::new(load.keys, theta)),
        };
        let mut ops = Vec::with_capacity(count * load.ops);
        for _ in 0..count * load.ops {
            let key = match &zipf {
                None => rng.below(load.keys),
                Some(zipf) => zipf.sample(&mut rng),
            };
            let write = rng.below(100) < load.write_pct;
            ops.push(if write { key | WRITE } else { key });
        }
        Templates {
            ops_per_txn: load.ops,
            ops,
        }
    }

    /// An empty pool, for the loader (it only runs explicit batches).
    pub fn none() -> Self {
        Templates {
            ops_per_txn: 1,
            ops: Vec::new(),
        }
    }

    /// All-write templates covering keys `0..keys` in order, `batch` per
    /// transaction: the preload stream.
    pub fn preload(keys: u32, batch: usize) -> Vec<Vec<u32>> {
        let all: Vec<u32> = (0..keys).map(|k| k | WRITE).collect();
        all.chunks(batch).map(<[u32]>::to_vec).collect()
    }

    pub fn len(&self) -> usize {
        self.ops.len() / self.ops_per_txn
    }

    pub fn get(&self, index: usize) -> &[u32] {
        &self.ops[index * self.ops_per_txn..(index + 1) * self.ops_per_txn]
    }

    /// The raw stream, for the determinism tests.
    #[cfg(test)]
    pub fn raw(&self) -> &[u32] {
        &self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOAD: Load = Load {
        keys: 1024,
        dist: KeyDist::Zipf(0.99),
        ops: 8,
        write_pct: 25,
    };

    #[test]
    fn same_seed_gives_byte_identical_streams_and_other_seeds_differ() {
        let a = Templates::generate(&LOAD, 42, "mem_contended", 0, 500);
        let b = Templates::generate(&LOAD, 42, "mem_contended", 0, 500);
        assert_eq!(a.raw(), b.raw());
        for other in [
            Templates::generate(&LOAD, 43, "mem_contended", 0, 500),
            Templates::generate(&LOAD, 42, "mem_contended", 1, 500),
            Templates::generate(&LOAD, 42, "mem_short", 0, 500),
        ] {
            assert_ne!(a.raw(), other.raw());
        }
    }

    #[test]
    fn templates_respect_the_load_shape() {
        let t = Templates::generate(&LOAD, 7, "w", 0, 4000);
        assert_eq!(t.len(), 4000);
        assert_eq!(t.get(17).len(), 8);
        assert!(t.raw().iter().all(|op| op & !WRITE < 1024));
        let writes = t.raw().iter().filter(|op| **op & WRITE != 0).count();
        let share = writes as f64 / t.raw().len() as f64;
        assert!((share - 0.25).abs() < 0.02, "write share {share}");
    }

    #[test]
    fn zipf_rank_frequencies_follow_the_power_law() {
        let zipf = Zipf::new(1024, 0.99);
        let mut rng = Rng::new(1);
        let mut counts = vec![0u32; 1024];
        for _ in 0..400_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        // f(rank 1) / f(rank k) = k^theta.
        for (k, want) in [(2usize, 2f64.powf(0.99)), (8, 8f64.powf(0.99))] {
            let got = f64::from(counts[0]) / f64::from(counts[k - 1]);
            assert!((got / want - 1.0).abs() < 0.08, "rank {k}: {got} vs {want}");
        }
        assert!(counts.windows(2).take(16).all(|w| w[0] > w[1]));
        assert!(counts.iter().all(|c| *c > 0), "every key is reachable");
    }

    #[test]
    fn uniform_covers_the_key_space_evenly() {
        let mut rng = Rng::new(9);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        assert!(counts.iter().all(|c| (9_000..11_000).contains(c)));
    }

    #[test]
    fn preload_covers_every_key_once() {
        let batches = Templates::preload(1000, 256);
        assert_eq!(batches.len(), 4);
        let keys: Vec<u32> = batches.concat().iter().map(|op| op & !WRITE).collect();
        assert_eq!(keys, (0..1000).collect::<Vec<_>>());
    }
}
