//! Seeded D2 violations: wall-clock and entropy in library code.

pub fn elapsed_nanos() -> u128 {
    let start = std::time::Instant::now();
    start.elapsed().as_nanos()
}

pub fn roll() -> u64 {
    let mut rng = rand::thread_rng();
    rng.gen()
}
