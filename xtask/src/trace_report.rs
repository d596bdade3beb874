//! `cargo xtask trace-report`: post-mortem summary of packet-lifecycle
//! trace logs.
//!
//! Reads the JSONL files written by the experiments binary under
//! `--trace` (one `TraceEvent` per line, then one `"kind":"meta"` line;
//! files from older builds also carry a `"kind":"summary"` line, counted
//! beside it), aggregates them, and prints the questions a post-mortem
//! actually asks: where were packets dropped and why, what fraction of
//! admitted packets were CE-marked, what fraction of credits bought no
//! data, how deep a queue got, and which flows retransmitted when.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use flexpass_simhooks::trace::{EventKind, TraceEvent, TraceTotals};

/// Aggregated view over every parsed event: the shared totals plus what
/// only a post-mortem over files needs.
#[derive(Default)]
pub struct Report {
    files: usize,
    summaries: u64,
    skipped: u64,
    /// Counts by kind, drop sites and credit-waste matching, across files.
    pub totals: TraceTotals,
    /// flow → retransmit (t_ns, seq) timeline, in file order.
    retx: BTreeMap<u64, Vec<(u64, i64)>>,
}

impl Report {
    fn fold(&mut self, ev: &TraceEvent) {
        self.totals.fold(ev);
        if let TraceEvent::Retransmit { t_ns, flow, seq } = *ev {
            self.retx.entry(flow).or_default().push((t_ns, seq));
        }
    }

    /// Folds one JSONL file's text in.
    pub fn fold_text(&mut self, text: &str) {
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match TraceEvent::parse_json_line(line) {
                Some(ev) => self.fold(&ev),
                None if line.contains("\"kind\":\"summary\"")
                    || line.contains("\"kind\":\"meta\"") =>
                {
                    self.summaries += 1
                }
                None => self.skipped += 1,
            }
        }
    }

    /// The report text `cargo xtask trace-report` prints.
    pub fn render(&self) -> String {
        let t = &self.totals;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace-report: {} file(s), {} event(s), {} meta/summary line(s), {} unparsed",
            self.files,
            t.events(),
            self.summaries,
            self.skipped
        );
        if t.events() == 0 {
            return out;
        }
        let _ = writeln!(out, "\nevents by kind:");
        let mut kinds: Vec<_> = EventKind::ALL
            .iter()
            .map(|&k| (k.name(), t.count(k)))
            .filter(|&(_, n)| n > 0)
            .collect();
        kinds.sort_unstable();
        for (kind, n) in kinds {
            let _ = writeln!(out, "  {kind:<14} {n}");
        }

        if !t.drop_sites.is_empty() {
            let mut sites: Vec<_> = t
                .drop_sites
                .iter()
                .map(|(&(node, cause), &n)| (node, cause.name(), n))
                .collect();
            sites.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
            let _ = writeln!(out, "\ntop drop sites:");
            for (node, cause, n) in sites.into_iter().take(10) {
                let _ = writeln!(out, "  node {node:<5} {cause:<14} {n}");
            }
        }

        let ratio = |num: u64, den: u64| {
            if den == 0 {
                "n/a".to_string()
            } else {
                format!("{:.4} ({num}/{den})", num as f64 / den as f64)
            }
        };
        let _ = writeln!(out, "\nrates:");
        let _ = writeln!(
            out,
            "  ecn mark rate      {}",
            ratio(t.count(EventKind::EcnMark), t.count(EventKind::Enqueue))
        );
        // Only wastes with an observed matching issue count, so a
        // ring-truncated log can no longer render a >100 % waste rate.
        let truncated = if t.unmatched_waste > 0 {
            format!(
                " [TRUNCATED: {} waste(s) without observed issue]",
                t.unmatched_waste
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  credit waste       {}{truncated}",
            ratio(t.matched_waste, t.count(EventKind::CreditSent))
        );
        let _ = writeln!(out, "  rto fires          {}", t.count(EventKind::Rto));
        let _ = writeln!(
            out,
            "  timer cancels      {}",
            t.count(EventKind::TimerCancel)
        );
        let peak = t.peak_depth.map_or("n/a".to_string(), |(bytes, queue)| {
            format!("{bytes} B (queue {queue})")
        });
        let _ = writeln!(out, "  peak queue depth   {peak}");

        if !self.retx.is_empty() {
            let mut flows: Vec<_> = self.retx.iter().collect();
            flows.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(b.0)));
            let _ = writeln!(out, "\nretransmit timelines (top flows):");
            for (flow, tl) in flows.into_iter().take(8) {
                let shown: Vec<String> = tl
                    .iter()
                    .take(10)
                    .map(|(t, s)| format!("{}us:seq{s}", t / 1_000))
                    .collect();
                let more = if tl.len() > 10 {
                    format!(" (+{} more)", tl.len() - 10)
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "  flow {flow:<6} x{:<4} {}{more}",
                    tl.len(),
                    shown.join(" ")
                );
            }
        }
        out
    }
}

fn collect_jsonl(path: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(path)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for p in entries {
            collect_jsonl(&p, out)?;
        }
    } else if path.extension().is_some_and(|e| e == "jsonl") {
        out.push(path.to_path_buf());
    }
    Ok(())
}

/// Runs the report over `paths` (files or directories searched for
/// `*.jsonl`), printing to stdout. Returns an error string for usage /
/// IO problems.
pub fn run(paths: &[String]) -> Result<(), String> {
    if paths.is_empty() {
        return Err("trace-report requires at least one file or directory".into());
    }
    let mut files = Vec::new();
    for p in paths {
        let path = PathBuf::from(p);
        if !path.exists() {
            return Err(format!("trace-report: no such path `{p}`"));
        }
        if path.is_dir() {
            collect_jsonl(&path, &mut files).map_err(|e| format!("trace-report: {p}: {e}"))?;
        } else {
            files.push(path);
        }
    }
    if files.is_empty() {
        return Err("trace-report: no .jsonl files found under the given paths".into());
    }
    let mut report = Report::default();
    for f in &files {
        let text =
            fs::read_to_string(f).map_err(|e| format!("trace-report: {}: {e}", f.display()))?;
        report.files += 1;
        report.fold_text(&text);
    }
    print!("{}", report.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpass_simhooks::trace::DropCause;

    fn jsonl() -> String {
        let evs = [
            TraceEvent::Enqueue {
                t_ns: 1_000,
                queue: 3,
                flow: 7,
                seq: 0,
                bytes_after: 1538,
            },
            TraceEvent::EcnMark {
                t_ns: 1_100,
                queue: 3,
                flow: 7,
                seq: 0,
            },
            TraceEvent::Drop {
                t_ns: 2_000,
                node: 4,
                flow: 7,
                seq: 1,
                cause: DropCause::Buffer,
            },
            TraceEvent::Drop {
                t_ns: 2_100,
                node: 4,
                flow: 8,
                seq: 0,
                cause: DropCause::Buffer,
            },
            TraceEvent::CreditSent {
                t_ns: 3_000,
                flow: 9,
                idx: 0,
            },
            TraceEvent::CreditWasted {
                t_ns: 3_500,
                flow: 9,
            },
            TraceEvent::Retransmit {
                t_ns: 4_000,
                flow: 7,
                seq: 1,
            },
        ];
        let mut s: String = evs.iter().map(|e| e.to_json_line() + "\n").collect();
        s.push_str("{\"kind\":\"summary\",\"bin_ns\":1000}\n");
        s.push_str("{\"kind\":\"meta\",\"label\":\"x\",\"total\":7}\n");
        s.push_str("not json\n");
        s
    }

    #[test]
    fn report_aggregates_and_renders() {
        let mut r = Report {
            files: 1,
            ..Default::default()
        };
        r.fold_text(&jsonl());
        assert_eq!(r.totals.events(), 7);
        assert_eq!(r.summaries, 2);
        assert_eq!(r.skipped, 1);
        assert_eq!(r.totals.drop_sites[&(4, DropCause::Buffer)], 2);
        assert_eq!(r.retx[&7], vec![(4_000, 1)]);
        let text = r.render();
        assert!(text.contains("top drop sites"), "{text}");
        assert!(text.contains("node 4"), "{text}");
        assert!(text.contains("ecn mark rate      1.0000 (1/1)"), "{text}");
        assert!(text.contains("credit waste       1.0000 (1/1)"), "{text}");
        assert!(!text.contains("TRUNCATED"), "{text}");
        assert!(
            text.contains("peak queue depth   1538 B (queue 3)"),
            "{text}"
        );
        assert!(text.contains("flow 7"), "{text}");
    }

    /// Regression: wastes whose issues were evicted from the trace ring
    /// used to push the rendered waste rate above 100 %; they must be
    /// excluded from the ratio and flagged instead.
    #[test]
    fn truncated_trace_flags_unreliable_waste_ratio() {
        let evs = [
            TraceEvent::CreditWasted { t_ns: 100, flow: 2 },
            TraceEvent::CreditSent {
                t_ns: 200,
                flow: 9,
                idx: 0,
            },
            TraceEvent::CreditWasted { t_ns: 300, flow: 9 },
            TraceEvent::CreditWasted { t_ns: 400, flow: 9 },
        ];
        let text: String = evs.iter().map(|e| e.to_json_line() + "\n").collect();
        let mut r = Report::default();
        r.fold_text(&text);
        assert_eq!(r.totals.count(EventKind::CreditWasted), 3);
        assert_eq!(r.totals.matched_waste, 1);
        assert_eq!(r.totals.unmatched_waste, 2);
        let rendered = r.render();
        assert!(
            rendered.contains("credit waste       1.0000 (1/1)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("[TRUNCATED: 2 waste(s) without observed issue]"),
            "{rendered}"
        );
        assert!(rendered.contains("peak queue depth   n/a"), "{rendered}");
    }

    #[test]
    fn empty_report_renders_without_sections() {
        let r = Report::default();
        let text = r.render();
        assert!(text.starts_with("trace-report: 0 file(s), 0 event(s)"));
        assert!(!text.contains("events by kind"));
    }
}
