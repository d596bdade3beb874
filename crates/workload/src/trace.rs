//! Trace-driven workloads: load flows from a CSV file so users can replay
//! their own traffic against any scheme.
//!
//! Format (header optional, `#` comments ignored):
//!
//! ```csv
//! src,dst,size_bytes,start_us
//! 0,5,14600,0
//! 3,7,1000000,125.5
//! ```
//!
//! [`parse_trace`] rejects a row the simulator cannot run with a
//! [`TraceError`] naming its line and column: besides malformed values, a
//! size above [`MAX_FLOW_BYTES`] (its packet count would not fit a `u32`)
//! and a start after [`MAX_START`] (the run's clock would overflow).

use flexpass_simcore::time::{Time, TimeDelta};
use flexpass_simcore::units::Bytes;
use flexpass_simnet::consts::MAX_FLOW_BYTES;
use flexpass_simnet::packet::FlowSpec;

/// Latest start a trace row may ask for: 2^62 ns (about 146 years), a
/// quarter of the `u64` nanosecond clock, so a run's spans added on top
/// cannot overflow it.
pub const MAX_START: Time = Time::from_nanos(1 << 62);

/// A parse failure: the offending line (1-based) and, for a bad value,
/// the column it sits in.
#[derive(Debug, PartialEq, Eq)]
pub struct TraceError {
    /// Line number in the input.
    pub line: usize,
    /// The offending column (`src`, `dst`, `size_bytes` or `start_us`);
    /// `None` for a row that is malformed as a whole.
    pub field: Option<&'static str>,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.field {
            Some(field) => write!(f, "trace line {}, {field}: {}", self.line, self.reason),
            None => write!(f, "trace line {}: {}", self.line, self.reason),
        }
    }
}

impl std::error::Error for TraceError {}

/// Parses a flow trace. Each data row is `src,dst,size_bytes,start_us`:
/// host ids are non-negative integers, the size a number of bytes in
/// [1, [`MAX_FLOW_BYTES`]], the start a time in microseconds in
/// [0, [`MAX_START`]].
/// Flow ids are assigned sequentially from `first_id`; tags are 0 (the
/// scheme layer re-tags by deployment).
///
/// # Examples
///
/// ```
/// use flexpass_workload::trace::parse_trace;
///
/// let flows = parse_trace("src,dst,size_bytes,start_us\n0,1,1460,0\n1,0,2920,10\n", 0).unwrap();
/// assert_eq!(flows.len(), 2);
/// assert_eq!(flows[1].size.get(), 2920);
/// assert_eq!(flows[1].start.as_micros_f64(), 10.0);
/// ```
pub fn parse_trace(text: &str, first_id: u64) -> Result<Vec<FlowSpec>, TraceError> {
    let mut flows = Vec::new();
    let mut id = first_id;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if i == 0 && line.starts_with("src") {
            continue; // Header.
        }
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        let error = |field, reason| TraceError {
            line: lineno,
            field,
            reason,
        };
        if cells.len() != 4 {
            let reason = format!("expected 4 columns, found {}", cells.len());
            return Err(error(None, reason));
        }
        let bad = |idx: usize, name: &'static str, want: &str| {
            error(
                Some(name),
                format!("expected {want}, found {:?}", cells[idx]),
            )
        };
        let host = |idx: usize, name| {
            let host = cells[idx].parse::<usize>();
            host.map_err(|_| bad(idx, name, "a non-negative integer host id"))
        };
        let number = |idx: usize, name, min: f64, max: f64| match cells[idx].parse::<f64>() {
            Ok(v) if (min..=max).contains(&v) => Ok(v),
            Ok(v) if v.is_finite() && v > max => Err(bad(idx, name, &format!("at most {max}"))),
            _ => Err(bad(idx, name, &format!("a finite number >= {min}"))),
        };
        let src = host(0, "src")?;
        let dst = host(1, "dst")?;
        if src == dst {
            return Err(error(None, "src == dst".into()));
        }
        let size = number(2, "size_bytes", 1.0, MAX_FLOW_BYTES.as_f64())?;
        let start_us = number(3, "start_us", 0.0, MAX_START.as_micros_f64())?;
        flows.push(FlowSpec {
            id,
            src,
            dst,
            size: Bytes::from_f64(size),
            start: Time::ZERO + TimeDelta::from_secs_f64(start_us * 1e-6),
            tag: 0,
            fg: false,
        });
        id += 1;
    }
    Ok(flows)
}

/// Renders flows back to the trace format (inverse of [`parse_trace`]).
pub fn render_trace(flows: &[FlowSpec]) -> String {
    let mut out = String::from("src,dst,size_bytes,start_us\n");
    for f in flows {
        out.push_str(&format!(
            "{},{},{},{}\n",
            f.src,
            f.dst,
            f.size.get(),
            f.start.as_micros_f64()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_trace() {
        let t = "src,dst,size_bytes,start_us\n0,1,1460,0\n2,3,5000,12.5\n";
        let flows = parse_trace(t, 100).unwrap();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].id, 100);
        assert_eq!(flows[1].id, 101);
        assert_eq!(flows[1].src, 2);
        assert_eq!(flows[1].start.as_nanos(), 12_500);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let t = "# my trace\n\n0,1,100,0\n# tail comment\n1,0,200,5\n";
        let flows = parse_trace(t, 0).unwrap();
        assert_eq!(flows.len(), 2);
    }

    #[test]
    fn rejects_self_flows() {
        let err = parse_trace("3,3,100,0\n", 0).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("src == dst"));
    }

    #[test]
    fn rejects_malformed_rows() {
        assert!(parse_trace("1,2,3\n", 0).is_err());
        assert!(parse_trace("a,2,3,4\n", 0).is_err());
        assert!(parse_trace("1,2,0,4\n", 0).is_err());
        assert!(parse_trace("1,2,100,-5\n", 0).is_err());
    }

    /// The column a row's bad value sits in, or `None` if it parsed.
    fn bad_field(row: &str) -> Option<&'static str> {
        parse_trace(row, 0).err().map(|e| e.field.expect("a field"))
    }

    /// A host id is a non-negative integer: `-1` and `NaN` used to cast to
    /// host 0 and replay silently, `1.5` to host 1.
    #[test]
    fn host_ids_are_non_negative_integers() {
        for bad in ["-1", "NaN", "1.5", "inf"] {
            assert_eq!(
                bad_field(&format!("{bad},2,1000,0\n")),
                Some("src"),
                "{bad}"
            );
            assert_eq!(
                bad_field(&format!("2,{bad},1000,0\n")),
                Some("dst"),
                "{bad}"
            );
        }
    }

    /// A size is a finite number of at least one byte: `NaN` used to panic
    /// in `Bytes::from_f64`, past the `< 1` check it slips by.
    #[test]
    fn sizes_are_finite() {
        for bad in ["NaN", "inf", "-inf", "0.5", "-3"] {
            assert_eq!(
                bad_field(&format!("0,1,{bad},0\n")),
                Some("size_bytes"),
                "{bad}"
            );
        }
    }

    /// A start is a finite, non-negative time.
    #[test]
    fn starts_are_finite_and_non_negative() {
        for bad in ["NaN", "inf", "-5", "x"] {
            assert_eq!(
                bad_field(&format!("0,1,1000,{bad}\n")),
                Some("start_us"),
                "{bad}"
            );
        }
    }

    /// A size whose packet count overflows a `u32` used to wrap and
    /// "complete" after one packet.
    #[test]
    fn sizes_beyond_a_u32_packet_count_are_rejected() {
        assert_eq!(MAX_FLOW_BYTES.get(), 6_270_652_250_700);
        assert!(parse_trace("0,1,6270652250700,0\n", 0).is_ok());
        let err = parse_trace("0,1,6270652250701,0\n", 0).unwrap_err();
        assert_eq!(
            err.to_string(),
            "trace line 1, size_bytes: expected at most 6270652250700, found \"6270652250701\""
        );
    }

    /// A start past the clock horizon used to saturate or wrap the clock.
    #[test]
    fn starts_beyond_the_clock_horizon_are_rejected() {
        assert!(parse_trace("0,1,1000,4611686018427387\n", 0).is_ok());
        let err = parse_trace("0,1,1000,1e16\n", 0).unwrap_err();
        assert_eq!(
            err.to_string(),
            "trace line 1, start_us: expected at most 4611686018427388, found \"1e16\""
        );
    }

    #[test]
    fn round_trips() {
        let t = "src,dst,size_bytes,start_us\n0,1,1460,0\n2,3,5000,12.5\n";
        let flows = parse_trace(t, 0).unwrap();
        let rendered = render_trace(&flows);
        let again = parse_trace(&rendered, 0).unwrap();
        assert_eq!(flows, again);
    }

    #[test]
    fn error_displays_line() {
        let err = parse_trace("0,1,100,0\nbad row\n", 0).unwrap_err();
        assert_eq!(err.line, 2);
        let msg = err.to_string();
        assert!(msg.contains("line 2"));
        let err = parse_trace("0,1,NaN,0\n", 0).unwrap_err();
        assert_eq!(
            err.to_string(),
            "trace line 1, size_bytes: expected a finite number >= 1, found \"NaN\""
        );
    }
}
