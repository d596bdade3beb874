//! Dependency-free SVG line charts for the result CSVs, so the repository
//! regenerates *figures*, not just tables. `flexpass-experiments --plot`
//! renders every chart the figure table ([`crate::figures`]) declares for a
//! CSV present in the output directory; which columns form a series, which
//! are plotted and what the axes say is the table's business, not this
//! module's.

use std::fmt::Write as _;
use std::path::Path;

use crate::csvout::Csv;
use crate::figures::{Chart, FIGURES};

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

/// Escapes `text` for XML character data and attribute values.
fn xml(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Appends a line from `a` to `b` drawn with the `stroke` attributes.
fn line(svg: &mut String, a: (f64, f64), b: (f64, f64), stroke: &str) {
    let ((x1, y1), (x2, y2)) = (a, b);
    let _ = write!(
        svg,
        r#"<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {stroke}/>"#
    );
}

/// Appends `content`, escaped, as a text element at `at` with the `attrs`
/// attributes — the one place chart text enters the document.
fn text(svg: &mut String, at: (f64, f64), attrs: &str, content: &str) {
    let (x, y) = at;
    let _ = write!(
        svg,
        r#"<text x="{x}" y="{y}" {attrs}>{}</text>"#,
        xml(content)
    );
}

/// Renders a line chart as a standalone SVG document; the title, the axis
/// labels and the series names may hold any text.
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
    let points = || series.iter().flat_map(|s| s.points.iter());
    let x_lo = points().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let x_hi = points().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
    let y_max = points().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    // Without points the x axis is the unit interval; y starts at zero.
    let (x_lo, x_hi) = if x_lo > x_hi {
        (0.0, 1.0)
    } else {
        (x_lo, x_hi)
    };
    let y_hi = if y_max > 0.0 { y_max * 1.08 } else { 1.0 };

    let (left, right, top, bottom) = (MARGIN_L, WIDTH - MARGIN_R, MARGIN_T, HEIGHT - MARGIN_B);
    let (mid_x, mid_y) = ((left + right) / 2.0, (top + bottom) / 2.0);
    let px = |x: f64| {
        let span = x_hi - x_lo;
        left + if span > 0.0 {
            (x - x_lo) / span * (right - left)
        } else {
            0.0
        }
    };
    let py = |y: f64| bottom - y / y_hi * (bottom - top);
    const BLACK: &str = r#"stroke="black""#;
    const MIDDLE: &str = r#"text-anchor="middle""#;

    let mut svg = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" font-family="sans-serif" font-size="12"><rect width="100%" height="100%" fill="white"/>"#
    );
    let heading = r#"text-anchor="middle" font-size="15" font-weight="bold""#;
    text(&mut svg, (mid_x, 22.0), heading, title);

    // Axes, ticks and grid.
    line(&mut svg, (left, bottom), (right, bottom), BLACK);
    line(&mut svg, (left, top), (left, bottom), BLACK);
    for tick in nice_ticks(x_lo, x_hi) {
        let x = px(tick);
        line(&mut svg, (x, bottom), (x, bottom + 5.0), BLACK);
        text(&mut svg, (x, bottom + 20.0), MIDDLE, &fmt_tick(tick));
    }
    for tick in nice_ticks(0.0, y_hi) {
        let y = py(tick);
        line(&mut svg, (left - 5.0, y), (left, y), BLACK);
        line(&mut svg, (left, y), (right, y), r##"stroke="#dddddd""##);
        text(
            &mut svg,
            (left - 9.0, y + 4.0),
            r#"text-anchor="end""#,
            &fmt_tick(tick),
        );
    }
    text(&mut svg, (mid_x, HEIGHT - 12.0), MIDDLE, x_label);
    let upright = format!(r#"{MIDDLE} transform="rotate(-90 16 {mid_y})""#);
    text(&mut svg, (16.0, mid_y), &upright, y_label);

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
        let y = top + 14.0 + i as f64 * 18.0;
        let stroke = format!(r#"stroke="{color}" stroke-width="2""#);
        line(&mut svg, (right + 8.0, y), (right + 28.0, y), &stroke);
        text(
            &mut svg,
            (right + 33.0, y + 4.0),
            r#"text-anchor="start""#,
            &s.name,
        );
    }
    svg.push_str("</svg>");
    svg
}

/// The series of `chart` over a parsed CSV: for each y column, one series
/// per distinct tuple of the chart's key columns, named by the key values
/// (and the y column, where the keys alone would not tell series apart).
/// Cells that are not finite numbers — a failed point's `NaN` — are left
/// out; `None` if the CSV lacks a column the chart names.
fn chart_series(csv: &Csv, chart: &Chart) -> Option<Vec<Series>> {
    let idx = |name: &str| csv.header().iter().position(|h| h == name);
    let keys: Vec<usize> = chart.series.iter().map(|k| idx(k)).collect::<Option<_>>()?;
    let x = idx(chart.x)?;
    let finite = |cell: &str| cell.parse::<f64>().ok().filter(|v| v.is_finite());
    let mut out: Vec<Series> = Vec::new();
    for &y_col in chart.y {
        let y = idx(y_col)?;
        for r in csv.rows() {
            let (Some(xv), Some(yv)) = (finite(&r[x]), finite(&r[y])) else {
                continue;
            };
            let mut name: Vec<&str> = keys.iter().map(|&k| r[k].as_str()).collect();
            if keys.is_empty() || chart.y.len() > 1 {
                name.push(y_col);
            }
            let name = name.join(" ");
            match out.iter_mut().find(|s| s.name == name) {
                Some(s) => s.points.push((xv, yv)),
                None => out.push(Series {
                    name,
                    points: vec![(xv, yv)],
                }),
            }
        }
    }
    Some(out)
}

/// Renders every chart of the figure table whose CSV is present in `dir`,
/// as `<stem>_<first y column>.svg`. Returns the number of charts written.
pub fn plot_results(dir: &Path) -> std::io::Result<usize> {
    let mut written = 0;
    for out in FIGURES.iter().flat_map(|fig| fig.outputs) {
        let Some(csv) = Csv::read(dir, out.stem) else {
            continue;
        };
        for chart in out.charts {
            let Some(series) = chart_series(&csv, chart).filter(|s| !s.is_empty()) else {
                continue;
            };
            let svg = svg_line_chart(chart.title, chart.x_label, chart.y_label, &series);
            std::fs::write(dir.join(format!("{}_{}.svg", out.stem, chart.y[0])), svg)?;
            written += 1;
        }
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

    fn chart(series: &'static [&'static str], y: &'static [&'static str]) -> Chart {
        Chart {
            series,
            x: "x",
            y,
            title: "t",
            x_label: "x",
            y_label: "y",
        }
    }

    #[test]
    fn series_split_by_key_column() {
        let csv = Csv::parse(Path::new("t.csv"), "scheme,x,y\na,0,1\na,1,2\nb,0,3\n");
        let s = chart_series(&csv, &chart(&["scheme"], &["y"])).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].name.as_str(), &s[0].points),
            ("a", &vec![(0.0, 1.0), (1.0, 2.0)])
        );
        assert_eq!((s[1].name.as_str(), &s[1].points), ("b", &vec![(0.0, 3.0)]));
        assert!(chart_series(&csv, &chart(&["absent"], &["y"])).is_none());
    }

    /// Without key columns each listed y column is a series named after
    /// itself; unlisted columns are not plotted, and a failed point's `NaN`
    /// is left out rather than drawn.
    #[test]
    fn keyless_chart_plots_the_listed_y_columns() {
        let csv = Csv::parse(Path::new("t.csv"), "x,y,z,w\n0,1,5,9\n1,NaN,6,9\n");
        let s = chart_series(&csv, &chart(&[], &["y", "z"])).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name.as_str(), &s[0].points), ("y", &vec![(0.0, 1.0)]));
        assert_eq!(
            (s[1].name.as_str(), &s[1].points),
            ("z", &vec![(0.0, 5.0), (1.0, 6.0)])
        );
    }

    /// The x coordinates of each polyline of `svg`, in document order.
    fn polyline_xs(svg: &str) -> Vec<Vec<f64>> {
        svg.split("<polyline ")
            .skip(1)
            .map(|rest| {
                let points = rest.split("points=\"").nth(1).unwrap();
                let points = &points[..points.find('"').unwrap()];
                points
                    .split(' ')
                    .map(|p| p.split(',').next().unwrap().parse().unwrap())
                    .collect()
            })
            .collect()
    }

    /// Fig. 14's shape: the three loads repeat every deployment ratio, so a
    /// chart keyed on the scheme alone folds them into one zig-zag line.
    /// Keyed on (scheme, load), each line is one monotone-x curve.
    #[test]
    fn two_key_chart_draws_one_monotone_line_per_key_pair() {
        let mut text = String::from("scheme,load,x,y\n");
        for load in ["0.1", "0.4", "0.7"] {
            for scheme in ["naive", "flexpass"] {
                for (x, y) in [("0.00", 1.0), ("0.50", 2.0), ("1.00", 1.5)] {
                    text.push_str(&format!("{scheme},{load},{x},{y}\n"));
                }
            }
        }
        let csv = Csv::parse(Path::new("t.csv"), &text);
        let series = chart_series(&csv, &chart(&["scheme", "load"], &["y"])).unwrap();
        let names: Vec<&str> = series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "naive 0.1",
                "flexpass 0.1",
                "naive 0.4",
                "flexpass 0.4",
                "naive 0.7",
                "flexpass 0.7"
            ]
        );
        let lines = polyline_xs(&svg_line_chart("t", "x", "y", &series));
        assert_eq!(lines.len(), 6);
        for xs in &lines {
            assert_eq!(xs.len(), 3);
            assert!(xs.windows(2).all(|w| w[0] < w[1]), "{xs:?}");
        }
        // The defect: one key column joins the loads, and x runs backwards.
        let joined = chart_series(&csv, &chart(&["scheme"], &["y"])).unwrap();
        let lines = polyline_xs(&svg_line_chart("t", "x", "y", &joined));
        assert!(lines.iter().all(|xs| xs.windows(2).any(|w| w[0] > w[1])));
    }

    /// Markup characters in any text the chart writes appear only escaped,
    /// so the document stays well-formed.
    #[test]
    fn chart_text_is_xml_escaped() {
        let series = [Series {
            name: "a<b & \"c\"".into(),
            points: vec![(0.0, 1.0)],
        }];
        let svg = svg_line_chart("p99 FCT (<100kB) & \"more\"", "x > 0", "y & z", &series);
        for escaped in [
            ">p99 FCT (&lt;100kB) &amp; &quot;more&quot;<",
            ">x &gt; 0<",
            ">y &amp; z<",
            ">a&lt;b &amp; &quot;c&quot;<",
        ] {
            assert!(svg.contains(escaped), "{escaped}: {svg}");
        }
        // Outside tags, no raw `<`, `&` or `"` is left: every text node is
        // made of plain characters and the four entities.
        for node in svg.split('<').skip(1).filter_map(|tag| tag.split_once('>')) {
            let text = ["&lt;", "&gt;", "&amp;", "&quot;"]
                .iter()
                .fold(node.1.to_string(), |t, entity| t.replace(entity, ""));
            assert!(!text.contains(['&', '"', '>']), "{}", node.1);
        }
    }

    #[test]
    fn plot_results_renders_known_csvs() {
        let dir = std::env::temp_dir().join("flexpass_plot_test");
        std::fs::create_dir_all(&dir).unwrap();
        // A keyed chart. The last line is a run killed mid-write (used to
        // panic indexing the missing columns); the quoted cell is what
        // `csvout` writes for a name holding a comma (used to shift every
        // later column of its row).
        std::fs::write(
            dir.join("fig8_incast.csv"),
            "transport,n_flows,max_fct_ms,timeouts\ndctcp,8,1.0,0\ndctcp,16,2.0,0\n\
             flexpass,8,0.5,0\n\"homa, \"\"basic\"\"\",8,0.7,0\ndctcp,16",
        )
        .unwrap();
        // A keyless chart, same two defects.
        std::fs::write(
            dir.join("fig17_seldrop_threshold.csv"),
            "sel_drop_kb,p99_small_ms,avg_fct_ms,avg_fct_degradation\n\
             50,0.2,1.5,\"0.3\"\n100,0.2,1.2,0.1\n150\n",
        )
        .unwrap();
        let n = plot_results(&dir).unwrap();
        assert_eq!(n, 2);
        let svg = std::fs::read_to_string(dir.join("fig8_incast_max_fct_ms.svg")).unwrap();
        assert!(svg.contains("flexpass"));
        // The quoted series name round-trips: CSV-unquoted, XML-escaped.
        assert!(svg.contains(">homa, &quot;basic&quot;<"), "{svg}");
        assert_eq!(svg.matches("<polyline").count(), 3);
        assert_eq!(svg.matches("<circle").count(), 4, "intact rows all plotted");
        let svg =
            std::fs::read_to_string(dir.join("fig17_seldrop_threshold_avg_fct_degradation.svg"))
                .unwrap();
        assert_eq!(svg.matches("<polyline").count(), 1, "only the listed y");
        assert_eq!(svg.matches("<circle").count(), 2);
    }

    #[test]
    fn empty_series_chart_still_valid() {
        let svg = svg_line_chart("empty", "x", "y", &[]);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
    }
}
