//! A live progress line for parallel sweeps: `done/total`, failure
//! count, ETA, and worker utilization, rewritten in place on stderr.

use crate::pool::CaseStatus;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Tracks and renders sweep progress. One instance per pool invocation,
/// driven from the collector thread (no locking needed).
pub struct Progress {
    total: usize,
    done: usize,
    failed: usize,
    skipped: usize,
    jobs: usize,
    busy: Duration,
    started: Instant,
    last_id: String,
}

impl Progress {
    /// Starts tracking a sweep of `total` cases on `jobs` workers.
    #[expect(
        clippy::disallowed_methods,
        reason = "the ETA on stderr is wall-clock; it reaches no artifact"
    )]
    pub fn new(total: usize, jobs: usize) -> Self {
        Progress {
            total,
            done: 0,
            failed: 0,
            skipped: 0,
            jobs: jobs.max(1),
            busy: Duration::ZERO,
            started: Instant::now(),
            last_id: String::new(),
        }
    }

    /// Records one finished case and repaints the line.
    pub fn case_done(&mut self, id: &str, status: CaseStatus, duration: Duration) {
        self.done += 1;
        self.busy += duration;
        match status {
            CaseStatus::Failed | CaseStatus::TimedOut => self.failed += 1,
            CaseStatus::Skipped => self.skipped += 1,
            CaseStatus::Completed => {}
        }
        self.last_id = id.to_string();
        self.repaint();
    }

    /// Seconds-of-work remaining estimate from mean case duration and
    /// remaining count, divided across workers. `None` until one case
    /// has finished.
    pub fn eta(&self) -> Option<Duration> {
        let ran = self.done - self.skipped;
        if ran == 0 {
            return None;
        }
        let mean = self.busy / ran as u32;
        let remaining = (self.total - self.done) as u32;
        Some(mean * remaining / self.jobs as u32)
    }

    /// Fraction of worker capacity spent simulating so far (1.0 = all
    /// workers busy the whole time; low values mean the queue couldn't
    /// fill the tail or cases are skipping).
    pub fn utilization(&self) -> f64 {
        let wall = self.started.elapsed().as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        (self.busy.as_secs_f64() / (wall * self.jobs as f64)).min(1.0)
    }

    fn repaint(&self) {
        let eta = match self.eta() {
            Some(d) => format_duration(d),
            None => "--".to_string(),
        };
        let mut line = format!(
            "\r[{}/{}] failed {}  eta {}  util {:>3.0}%  {}",
            self.done,
            self.total,
            self.failed,
            eta,
            100.0 * self.utilization(),
            self.last_id,
        );
        // Pad to clear leftovers from a longer previous id.
        const WIDTH: usize = 110;
        if line.len() < WIDTH {
            line.push_str(&" ".repeat(WIDTH - line.len()));
        }
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(line.as_bytes());
        let _ = err.flush();
    }

    /// Ends the progress line with a newline and a summary.
    pub fn finish(&mut self) {
        let wall = self.started.elapsed();
        eprintln!(
            "\n{} cases in {} wall ({} of simulation across {} workers, {:.0}% utilization); {} failed, {} skipped",
            self.done,
            format_duration(wall),
            format_duration(self.busy),
            self.jobs,
            100.0 * self.utilization(),
            self.failed,
            self.skipped,
        );
    }
}

/// `mm:ss` (or `h:mm:ss`) rendering.
fn format_duration(d: Duration) -> String {
    let secs = d.as_secs();
    if secs >= 3600 {
        format!("{}:{:02}:{:02}", secs / 3600, (secs / 60) % 60, secs % 60)
    } else {
        format!("{}:{:02}", secs / 60, secs % 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_and_utilization_track_work() {
        let mut p = Progress::new(4, 2);
        assert!(p.eta().is_none());
        p.done = 2;
        p.busy = Duration::from_secs(4);
        let eta = p.eta().unwrap();
        // mean 2 s/case, 2 cases left over 2 workers -> ~2 s.
        assert_eq!(eta, Duration::from_secs(2));
        assert!(p.utilization() >= 0.0 && p.utilization() <= 1.0);
    }

    #[test]
    fn duration_formats() {
        assert_eq!(format_duration(Duration::from_secs(61)), "1:01");
        assert_eq!(format_duration(Duration::from_secs(3723)), "1:02:03");
    }
}
