//! Seeded D2 violation: a bench bin gets no wall-clock exemption either;
//! a timing source needs an audited per-line allow.

pub fn wall_time<R>(f: impl FnOnce() -> R) -> (R, std::time::Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}
