//! Dependency-free SVG line charts for the result CSVs, so the repository
//! regenerates *figures*, not just tables. `flexpass-experiments --plot`
//! renders every known CSV in the output directory.

use std::fmt::Write as _;
use std::path::Path;

/// One plotted series.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` points in data coordinates.
    pub points: Vec<(f64, f64)>,
}

const WIDTH: f64 = 640.0;
const HEIGHT: f64 = 420.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 150.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 55.0;
const PALETTE: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b",
];

fn nice_ticks(lo: f64, hi: f64) -> Vec<f64> {
    if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
        return vec![lo];
    }
    let span = hi - lo;
    let raw = span / 5.0;
    let mag = 10f64.powf(raw.log10().floor());
    let step = [1.0, 2.0, 2.5, 5.0, 10.0]
        .iter()
        .map(|m| m * mag)
        .find(|&s| span / s <= 6.0)
        .unwrap_or(mag * 10.0);
    let mut t = (lo / step).ceil() * step;
    let mut out = Vec::new();
    while t <= hi + step * 1e-9 {
        out.push(t);
        t += step;
    }
    out
}

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Renders a line chart as a standalone SVG document.
///
/// # Examples
///
/// ```
/// use flexpass_experiments::plot::{svg_line_chart, Series};
///
/// let svg = svg_line_chart(
///     "demo",
///     "x",
///     "y",
///     &[Series { name: "a".into(), points: vec![(0.0, 1.0), (1.0, 2.0)] }],
/// );
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("polyline"));
/// ```
pub fn svg_line_chart(title: &str, x_label: &str, y_label: &str, series: &[Series]) -> String {
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    let (x_lo, x_hi) = pts
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.0), hi.max(p.0))
        });
    let (_, y_max) = pts
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.1), hi.max(p.1))
        });
    let (x_lo, x_hi) = if pts.is_empty() {
        (0.0, 1.0)
    } else {
        (x_lo, x_hi)
    };
    let y_lo = 0.0;
    let y_hi = if pts.is_empty() || y_max <= 0.0 {
        1.0
    } else {
        y_max * 1.08
    };

    let px = |x: f64| {
        MARGIN_L
            + if x_hi > x_lo {
                (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)
            } else {
                0.0
            }
    };
    let py =
        |y: f64| HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B);

    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" font-family="sans-serif" font-size="12">"#
    );
    let _ = write!(svg, r#"<rect width="100%" height="100%" fill="white"/>"#);
    let _ = write!(
        svg,
        r#"<text x="{}" y="22" text-anchor="middle" font-size="15" font-weight="bold">{}</text>"#,
        (MARGIN_L + WIDTH - MARGIN_R) / 2.0,
        title
    );

    // Axes.
    let _ = write!(
        svg,
        r#"<line x1="{l}" y1="{b}" x2="{r}" y2="{b}" stroke="black"/><line x1="{l}" y1="{t}" x2="{l}" y2="{b}" stroke="black"/>"#,
        l = MARGIN_L,
        r = WIDTH - MARGIN_R,
        t = MARGIN_T,
        b = HEIGHT - MARGIN_B
    );
    for tx in nice_ticks(x_lo, x_hi) {
        let x = px(tx);
        let _ = write!(
            svg,
            r#"<line x1="{x}" y1="{b}" x2="{x}" y2="{b2}" stroke="black"/><text x="{x}" y="{ty}" text-anchor="middle">{lbl}</text>"#,
            b = HEIGHT - MARGIN_B,
            b2 = HEIGHT - MARGIN_B + 5.0,
            ty = HEIGHT - MARGIN_B + 20.0,
            lbl = fmt_tick(tx)
        );
    }
    for ty_v in nice_ticks(y_lo, y_hi) {
        let y = py(ty_v);
        let _ = write!(
            svg,
            r##"<line x1="{l1}" y1="{y}" x2="{l}" y2="{y}" stroke="black"/><line x1="{l}" y1="{y}" x2="{r}" y2="{y}" stroke="#dddddd"/><text x="{lx}" y="{yy}" text-anchor="end">{lbl}</text>"##,
            l1 = MARGIN_L - 5.0,
            l = MARGIN_L,
            r = WIDTH - MARGIN_R,
            lx = MARGIN_L - 9.0,
            yy = y + 4.0,
            lbl = fmt_tick(ty_v)
        );
    }
    let _ = write!(
        svg,
        r#"<text x="{}" y="{}" text-anchor="middle">{}</text>"#,
        (MARGIN_L + WIDTH - MARGIN_R) / 2.0,
        HEIGHT - 12.0,
        x_label
    );
    let _ = write!(
        svg,
        r#"<text x="16" y="{}" text-anchor="middle" transform="rotate(-90 16 {})">{}</text>"#,
        (MARGIN_T + HEIGHT - MARGIN_B) / 2.0,
        (MARGIN_T + HEIGHT - MARGIN_B) / 2.0,
        y_label
    );

    // Series + legend.
    for (i, s) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let path: Vec<String> = s
            .points
            .iter()
            .map(|&(x, y)| format!("{:.1},{:.1}", px(x), py(y)))
            .collect();
        let _ = write!(
            svg,
            r#"<polyline fill="none" stroke="{color}" stroke-width="2" points="{}"/>"#,
            path.join(" ")
        );
        for &(x, y) in &s.points {
            let _ = write!(
                svg,
                r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="{color}"/>"#,
                px(x),
                py(y)
            );
        }
        let ly = MARGIN_T + 14.0 + i as f64 * 18.0;
        let _ = write!(
            svg,
            r#"<line x1="{lx}" y1="{ly}" x2="{lx2}" y2="{ly}" stroke="{color}" stroke-width="2"/><text x="{tx}" y="{tly}">{}</text>"#,
            s.name,
            lx = WIDTH - MARGIN_R + 8.0,
            lx2 = WIDTH - MARGIN_R + 28.0,
            tx = WIDTH - MARGIN_R + 33.0,
            tly = ly + 4.0
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Splits CSV text into records, each with the 1-based line it starts on —
/// the inverse of `csvout::render_row` (RFC 4180): a quoted cell may hold
/// commas, newlines and doubled quotes.
fn csv_records(text: &str) -> Vec<(usize, Vec<String>)> {
    let mut out = Vec::new();
    let (mut row, mut cell) = (Vec::new(), String::new());
    let (mut line, mut start, mut quoted) = (1, 1, false);
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\n' {
            line += 1;
        }
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                cell.push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => row.push(std::mem::take(&mut cell)),
            '\n' if !quoted => {
                row.push(std::mem::take(&mut cell));
                out.push((start, std::mem::take(&mut row)));
                start = line;
            }
            '\r' if !quoted => {}
            c => cell.push(c),
        }
    }
    if !cell.is_empty() || !row.is_empty() {
        row.push(cell);
        out.push((start, row));
    }
    out
}

/// Parses one of our result CSVs into `(header, rows)`. A row narrower than
/// the header (a run killed mid-write) is skipped with one stderr line
/// naming `path` and the row's line number, so every returned row can be
/// indexed by any header column.
fn parse_csv(path: &Path, text: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let mut records = csv_records(text).into_iter();
    let header = records.next().map(|(_, h)| h).unwrap_or_default();
    let rows = records
        .filter(|(_, r)| r.iter().any(|c| !c.trim().is_empty()))
        .filter(|(line, r)| {
            let whole = r.len() >= header.len();
            if !whole {
                eprintln!(
                    "warning: {}:{line}: row has {} of {} columns, skipped",
                    path.display(),
                    r.len(),
                    header.len()
                );
            }
            whole
        })
        .map(|(_, r)| r)
        .collect();
    (header, rows)
}

/// Builds one series per distinct value of `group_col`, plotting
/// `x_col` vs `y_col`.
fn grouped_series(
    header: &[String],
    rows: &[Vec<String>],
    group_col: &str,
    x_col: &str,
    y_col: &str,
) -> Vec<Series> {
    let idx = |name: &str| header.iter().position(|h| h == name);
    let (Some(g), Some(x), Some(y)) = (idx(group_col), idx(x_col), idx(y_col)) else {
        return Vec::new();
    };
    let mut out: Vec<Series> = Vec::new();
    for r in rows {
        let (Ok(xv), Ok(yv)) = (r[x].parse::<f64>(), r[y].parse::<f64>()) else {
            continue;
        };
        let name = &r[g];
        match out.iter_mut().find(|s| &s.name == name) {
            Some(s) => s.points.push((xv, yv)),
            None => out.push(Series {
                name: name.clone(),
                points: vec![(xv, yv)],
            }),
        }
    }
    out
}

/// The CSVs we know how to plot: `(file stem, group col, x col, y col,
/// title, x label, y label)`.
const CHARTS: &[(&str, &str, &str, &str, &str, &str, &str)] = &[
    (
        "fig10_sweep",
        "scheme",
        "deploy_ratio",
        "p99_small_all_ms",
        "Fig 10a: p99 FCT (<100kB) vs deployment",
        "deployment ratio",
        "p99 FCT (ms)",
    ),
    (
        "fig10_sweep",
        "scheme",
        "deploy_ratio",
        "avg_all_ms",
        "Fig 10b: average FCT vs deployment",
        "deployment ratio",
        "avg FCT (ms)",
    ),
    (
        "fig11_sweep",
        "scheme",
        "deploy_ratio",
        "p99_small_all_ms",
        "Fig 11a: p99 FCT (<100kB), mixed traffic",
        "deployment ratio",
        "p99 FCT (ms)",
    ),
    (
        "fig12_p99_by_type",
        "scheme",
        "deploy_ratio",
        "p99_small_upgraded_ms",
        "Fig 12: upgraded-flow p99 by scheme",
        "deployment ratio",
        "p99 FCT (ms)",
    ),
    (
        "fig13_stddev_by_type",
        "scheme",
        "deploy_ratio",
        "stddev_small_legacy_ms",
        "Fig 13: legacy small-flow FCT stddev",
        "deployment ratio",
        "stddev (ms)",
    ),
    (
        "fig8_incast",
        "transport",
        "n_flows",
        "max_fct_ms",
        "Fig 8: incast tail FCT",
        "number of flows",
        "max FCT (ms)",
    ),
    (
        "fig14_load_sweep",
        "scheme",
        "deploy_ratio",
        "p99_small_all_ms",
        "Fig 14: p99 FCT across loads",
        "deployment ratio",
        "p99 FCT (ms)",
    ),
    (
        "fig17_seldrop_threshold",
        "",
        "sel_drop_kb",
        "avg_fct_degradation",
        "Fig 17: selective-drop threshold trade-off",
        "threshold (kB)",
        "value",
    ),
    (
        "fig18_wq_tradeoff",
        "",
        "wq",
        "legacy_p99_max_degradation",
        "Fig 18: w_q trade-off",
        "w_q",
        "value",
    ),
    (
        "fig1a_ep_vs_dctcp",
        "",
        "time_ms",
        "dctcp_gbps",
        "Fig 1a: DCTCP under naive ExpressPass",
        "time (ms)",
        "throughput (Gbps)",
    ),
    (
        "fig9b_fp_vs_dctcp",
        "",
        "time_ms",
        "dctcp_gbps",
        "Fig 9b: DCTCP vs FlexPass",
        "time (ms)",
        "throughput (Gbps)",
    ),
];

/// Renders SVGs for every known CSV present in `dir`. Returns the number
/// of charts written.
pub fn plot_results(dir: &Path) -> std::io::Result<usize> {
    let mut written = 0;
    for &(stem, group, x, y, title, xl, yl) in CHARTS {
        let csv_path = dir.join(format!("{stem}.csv"));
        let Ok(text) = std::fs::read_to_string(&csv_path) else {
            continue;
        };
        let (header, rows) = parse_csv(&csv_path, &text);
        let series = if group.is_empty() || !header.iter().any(|h| h == group) {
            // Ungrouped: every numeric column vs x becomes a series.
            let xi = header.iter().position(|h| h == x);
            let Some(xi) = xi else { continue };
            header
                .iter()
                .enumerate()
                .filter(|(i, h)| {
                    *i != xi
                        && rows.iter().all(|r| r[*i].parse::<f64>().is_ok())
                        && h.as_str() != group
                })
                .map(|(i, h)| Series {
                    name: h.clone(),
                    points: rows
                        .iter()
                        .filter_map(|r| Some((r[xi].parse().ok()?, r[i].parse().ok()?)))
                        .collect(),
                })
                .collect()
        } else {
            grouped_series(&header, &rows, group, x, y)
        };
        if series.is_empty() {
            continue;
        }
        let svg = svg_line_chart(title, xl, yl, &series);
        let out = dir.join(format!("{stem}_{y}.svg"));
        std::fs::write(out, svg)?;
        written += 1;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_nice_and_cover_range() {
        let t = nice_ticks(0.0, 1.0);
        assert!(t.len() >= 3 && t.len() <= 7, "{t:?}");
        assert!(t.first().copied().unwrap() >= 0.0);
        assert!(t.last().copied().unwrap() <= 1.0 + 1e-9);
        let t = nice_ticks(0.0, 8.7);
        assert!(t.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn chart_contains_all_series() {
        let svg = svg_line_chart(
            "t",
            "x",
            "y",
            &[
                Series {
                    name: "alpha".into(),
                    points: vec![(0.0, 1.0), (1.0, 3.0)],
                },
                Series {
                    name: "beta".into(),
                    points: vec![(0.0, 2.0), (1.0, 1.0)],
                },
            ],
        );
        assert!(svg.contains("alpha") && svg.contains("beta"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.ends_with("</svg>"));
    }

    #[test]
    fn grouped_series_splits_by_column() {
        let (h, r) = parse_csv(Path::new("t.csv"), "scheme,x,y\na,0,1\na,1,2\nb,0,3\n");
        let s = grouped_series(&h, &r, "scheme", "x", "y");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].points, vec![(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(s[1].points, vec![(0.0, 3.0)]);
    }

    #[test]
    fn plot_results_renders_known_csvs() {
        let dir = std::env::temp_dir().join("flexpass_plot_test");
        std::fs::create_dir_all(&dir).unwrap();
        // Grouped path. The last line is a run killed mid-write (used to
        // panic indexing the missing columns); the quoted cell is what
        // `csvout` writes for a name holding a comma (used to shift every
        // later column of its row).
        std::fs::write(
            dir.join("fig8_incast.csv"),
            "transport,n_flows,max_fct_ms,timeouts\ndctcp,8,1.0,0\ndctcp,16,2.0,0\n\
             flexpass,8,0.5,0\n\"homa, \"\"basic\"\"\",8,0.7,0\ndctcp,16",
        )
        .unwrap();
        // Ungrouped path, same two defects.
        std::fs::write(
            dir.join("fig17_seldrop_threshold.csv"),
            "sel_drop_kb,avg_fct_degradation,note\n50,1.5,\"a,b\"\n100,1.2,ok\n150\n",
        )
        .unwrap();
        let n = plot_results(&dir).unwrap();
        assert_eq!(n, 2);
        let svg = std::fs::read_to_string(dir.join("fig8_incast_max_fct_ms.svg")).unwrap();
        assert!(svg.contains("flexpass"));
        assert!(svg.contains(">homa, \"basic\"<"), "{svg}");
        assert_eq!(svg.matches("<polyline").count(), 3);
        assert_eq!(svg.matches("<circle").count(), 4, "intact rows all plotted");
        let svg =
            std::fs::read_to_string(dir.join("fig17_seldrop_threshold_avg_fct_degradation.svg"))
                .unwrap();
        assert_eq!(svg.matches("<polyline").count(), 1, "`note` is not numeric");
        assert_eq!(svg.matches("<circle").count(), 2);
    }

    #[test]
    fn empty_series_chart_still_valid() {
        let svg = svg_line_chart("empty", "x", "y", &[]);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
    }
}
