//! Self-contained HTML violation report (§4: "a user-friendly HTML output
//! for viewing, filtering, and searching the violations").

use concord_core::{CheckReport, ContractSet};

/// Renders the check report as a single-file HTML page with client-side
/// filtering.
pub fn html_report(contracts: &ContractSet, report: &CheckReport) -> String {
    let summary = report.coverage.summary();
    let mut rows = String::new();
    for v in &report.violations {
        let line = v
            .line_no
            .map(|n| n.to_string())
            .unwrap_or_else(|| "—".to_string());
        // The operator-feedback loop (§4): each row carries a copy-ready
        // suppression key — the violated contract's first rendered line —
        // that drops the contract when added to a `--suppress` file.
        let suppress_key = contracts
            .contracts
            .get(v.contract_index)
            .map(|c| c.describe().lines().next().unwrap_or_default().to_string())
            .unwrap_or_default();
        rows.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td><code>{}</code></td><td><code class=\"sup\">{}</code></td></tr>\n",
            escape(&v.config),
            line,
            escape(&v.category),
            escape(&v.message),
            escape(&v.line),
            escape(&suppress_key),
        ));
    }
    let mut categories = String::new();
    for (category, count) in contracts.count_by_category() {
        categories.push_str(&format!(
            "<li><code>{}</code>: {count}</li>\n",
            escape(category)
        ));
    }
    let mut coverage_rows = String::new();
    for config in &report.coverage.per_config {
        let fraction = if config.total_lines == 0 {
            0.0
        } else {
            config.covered().len() as f64 / config.total_lines as f64
        };
        coverage_rows.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{:.1}%</td></tr>\n",
            escape(&config.name),
            config.total_lines,
            config.covered().len(),
            fraction * 100.0,
        ));
    }
    format!(
        r#"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Concord check report</title>
<style>
  body {{ font-family: system-ui, sans-serif; margin: 2rem; }}
  table {{ border-collapse: collapse; width: 100%; }}
  th, td {{ border: 1px solid #ccc; padding: 0.3rem 0.6rem; text-align: left; }}
  th {{ background: #f0f0f0; }}
  input {{ padding: 0.4rem; width: 24rem; margin-bottom: 1rem; }}
  code {{ background: #f6f6f6; }}
</style>
</head>
<body>
<h1>Concord check report</h1>
<p><strong>{violations}</strong> violation(s) ·
   coverage <strong>{coverage:.1}%</strong> of {lines} lines ·
   {contracts} contracts</p>
<ul>
{categories}</ul>
<details>
<summary>Per-configuration coverage</summary>
<table>
<thead><tr><th>config</th><th>lines</th><th>covered</th><th>coverage</th></tr></thead>
<tbody>
{coverage_rows}</tbody>
</table>
</details>
<input id="filter" placeholder="filter violations (config, category, text)..." oninput="applyFilter()">
<table id="violations">
<thead><tr><th>config</th><th>line</th><th>category</th><th>message</th><th>text</th><th>suppress key</th></tr></thead>
<tbody>
{rows}</tbody>
</table>
<script>
function applyFilter() {{
  const q = document.getElementById('filter').value.toLowerCase();
  for (const row of document.querySelectorAll('#violations tbody tr')) {{
    row.style.display = row.textContent.toLowerCase().includes(q) ? '' : 'none';
  }}
}}
</script>
</body>
</html>
"#,
        violations = report.violations.len(),
        coverage = summary.fraction * 100.0,
        lines = summary.total_lines,
        contracts = contracts.len(),
        categories = categories,
        coverage_rows = coverage_rows,
        rows = rows,
    )
}

fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_core::{check, learn, Dataset, LearnParams};

    #[test]
    fn report_contains_rows_and_escapes() {
        let configs = vec![
            ("a".to_string(), "needed <tag>\n".to_string()),
            ("b".to_string(), "needed <tag>\n".to_string()),
            ("c".to_string(), "needed <tag>\n".to_string()),
            ("d".to_string(), "needed <tag>\n".to_string()),
            ("e".to_string(), "needed <tag>\n".to_string()),
        ];
        let train = Dataset::from_named_texts(&configs, &[]).unwrap();
        let contracts = learn(&train, &LearnParams::default());
        assert!(!contracts.is_empty());

        let test = Dataset::from_named_texts(
            &[("broken".to_string(), "something else\n".to_string())],
            &[],
        )
        .unwrap();
        let report = check(&contracts, &test);
        let html = html_report(&contracts, &report);
        assert!(html.contains("<html"));
        assert!(html.contains("broken") || html.contains("violation"));
        assert!(html.contains("&lt;tag&gt;"), "angle brackets escaped");
        assert!(!html.contains("needed <tag>"));
        // The suppression key column carries the violated contract's
        // first rendered line.
        assert!(html.contains("suppress key"));
        assert!(html.contains("exists l ~"), "{html}");
    }
}
