//! The benchmark's own spans: every timed phase is measured through a
//! [`Timeline`], which also keeps the interval so the traced leg can write
//! it to a Chrome trace next to the spans `wg_trace` already emits.

use wg_trace::chrome::ChromeTrace;
use wg_trace::ThreadTrace;

#[derive(Default)]
pub struct Timeline {
    spans: Vec<(String, u64, u64)>,
}

impl Timeline {
    /// A start mark on the `wg_trace` clock, so both sets of spans share
    /// one time axis.
    pub fn start(&self) -> u64 {
        wg_trace::now_ns()
    }

    /// Close the phase opened at `start`; returns its length in seconds.
    pub fn end(&mut self, name: &str, start: u64) -> f64 {
        let dur = wg_trace::now_ns() - start;
        self.spans.push((name.to_string(), start, dur));
        dur as f64 / 1e9
    }

    /// Write the benchmark's phases (pid 1) and the drained `wg_trace`
    /// host spans (pid 2) as one Chrome trace.
    pub fn write_chrome(
        &self,
        path: &std::path::Path,
        host: &[ThreadTrace],
    ) -> std::io::Result<()> {
        let mut t = ChromeTrace::new();
        t.process_name(1, "perfbench");
        t.thread_name(1, 0, "phases");
        for (name, start, dur) in &self.spans {
            t.complete(
                1,
                0,
                name,
                "perfbench",
                *start as f64 / 1e3,
                *dur as f64 / 1e3,
                "",
            );
        }
        t.process_name(2, "wg_trace spans");
        for thread in host {
            t.add_host_thread(2, thread);
        }
        std::fs::write(path, t.finish())
    }
}
