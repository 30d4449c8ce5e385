//! Summary statistics the benchmark reports, kept free of I/O so the
//! self-tests can pin them on fixed inputs.

use std::time::{Duration, Instant};

/// Fewest samples that must lie beyond a percentile before it is
/// reported; with fewer, the tail is a handful of outliers, not a
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the middle two for an even count). `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p < 100), reported only when at least
/// [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n < rank + MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Geometric mean of strictly positive values; `None` if any is not.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty()
        || xs
            .iter()
            .any(|&x| x.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater))
    {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Open-loop latency: from when the request was *due*, not when it was
/// sent, so a stall also charges the requests queued behind it.
pub fn latency_from_due(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// How late the generator sent a request (zero when on time).
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// Checks every statistic above on fixed inputs; returns the first
/// violated expectation. Run by `--selftest` and by `cargo test`.
pub fn self_check() -> Result<(), String> {
    fn expect(ok: bool, what: &str) -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(what.to_string())
        }
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs().max(1.0);

    expect(median(&[]).is_none(), "median of nothing")?;
    expect(median(&[3.0, 1.0, 2.0]) == Some(2.0), "odd median")?;
    expect(median(&[4.0, 1.0, 3.0, 2.0]) == Some(2.5), "even median")?;

    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    expect(percentile(&hundred, 50.0) == Some(50.0), "p50 of 1..=100")?;
    expect(
        percentile(&hundred, 90.0) == Some(90.0),
        "p90 keeps 10 beyond",
    )?;
    expect(
        percentile(&hundred, 95.0).is_none(),
        "p95 of 100 has 5 beyond",
    )?;
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    expect(percentile(&thousand, 99.0) == Some(990.0), "p99 of 1000")?;
    expect(percentile(&thousand[..999], 99.0).is_none(), "p99 of 999")?;
    expect(percentile(&hundred[..19], 50.0).is_none(), "p50 of 19")?;
    expect(percentile(&hundred[..20], 50.0) == Some(10.0), "p50 of 20")?;

    expect(
        geomean(&[1.0, 100.0]).is_some_and(|g| close(g, 10.0)),
        "geomean 1,100",
    )?;
    expect(
        geomean(&[2.0, 8.0, 4.0]).is_some_and(|g| close(g, 4.0)),
        "geomean 2,8,4",
    )?;
    expect(geomean(&[1.0, 0.0]).is_none(), "geomean rejects zero")?;
    expect(geomean(&[]).is_none(), "geomean of nothing")?;

    let t0 = Instant::now();
    let due = t0 + Duration::from_millis(10);
    let sent = t0 + Duration::from_millis(14);
    let done = t0 + Duration::from_millis(15);
    expect(
        latency_from_due(due, done) == Duration::from_millis(5),
        "latency counts the send delay",
    )?;
    expect(lateness(due, sent) == Duration::from_millis(4), "lateness")?;
    expect(
        lateness(sent, due) == Duration::ZERO,
        "early send is not late",
    )?;

    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn statistics_on_fixed_inputs() {
        super::self_check().unwrap();
    }
}
