//! SARIF 2.1.0 output for `analyze --format=sarif`.
//!
//! Static Analysis Results Interchange Format: the machine-readable shape
//! CI understands (GitHub code scanning, IDE SARIF viewers). Built on the
//! hand-rolled [`crate::json`] tree, so the analyzer stays dependency-free.
//!
//! Level mapping: a finding whose `(file, rule)` count regressed over the
//! committed baseline is an `error` (the run fails); other active findings
//! are `warning` (grandfathered debt); suppressed findings are `note` and
//! carry their `tw-allow` justification as an in-source suppression.

use std::collections::BTreeSet;

use crate::baseline::Comparison;
use crate::json::Json;
use crate::rules::RULES;
use crate::Report;

const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders the report (and optionally its baseline comparison) as SARIF.
pub fn to_sarif(report: &Report, cmp: Option<&Comparison>) -> Json {
    let regressed: BTreeSet<(&str, &str)> = cmp
        .map(|c| {
            c.regressions
                .iter()
                .map(|(file, rule, _, _)| (file.as_str(), rule.as_str()))
                .collect()
        })
        .unwrap_or_default();

    let rules = Json::Arr(
        RULES
            .iter()
            .map(|(name, family, desc)| {
                Json::Obj(vec![
                    ("id".into(), Json::Str((*name).into())),
                    (
                        "shortDescription".into(),
                        Json::Obj(vec![("text".into(), Json::Str((*desc).into()))]),
                    ),
                    (
                        "properties".into(),
                        Json::Obj(vec![("family".into(), Json::Str((*family).into()))]),
                    ),
                ])
            })
            .collect(),
    );

    let results = Json::Arr(
        report
            .violations
            .iter()
            .map(|v| {
                let level = match &v.suppressed {
                    Some(_) => "note",
                    None if regressed.contains(&(v.file.as_str(), v.rule)) => "error",
                    None => "warning",
                };
                let location = Json::Obj(vec![(
                    "physicalLocation".into(),
                    Json::Obj(vec![
                        (
                            "artifactLocation".into(),
                            Json::Obj(vec![("uri".into(), Json::Str(v.file.clone()))]),
                        ),
                        (
                            "region".into(),
                            Json::Obj(vec![("startLine".into(), Json::Num(f64::from(v.line)))]),
                        ),
                    ]),
                )]);
                let mut result = vec![
                    ("ruleId".into(), Json::Str(v.rule.into())),
                    ("level".into(), Json::Str(level.into())),
                    (
                        "message".into(),
                        Json::Obj(vec![("text".into(), Json::Str(v.message.clone()))]),
                    ),
                    ("locations".into(), Json::Arr(vec![location])),
                ];
                if let Some(reason) = &v.suppressed {
                    result.push((
                        "suppressions".into(),
                        Json::Arr(vec![Json::Obj(vec![
                            ("kind".into(), Json::Str("inSource".into())),
                            ("justification".into(), Json::Str(reason.clone())),
                        ])]),
                    ));
                }
                Json::Obj(result)
            })
            .collect(),
    );

    let driver = Json::Obj(vec![
        ("name".into(), Json::Str("tw-analyze".into())),
        (
            "informationUri".into(),
            Json::Str("https://github.com/paper-repo-growth/tw-search".into()),
        ),
        ("rules".into(), rules),
    ]);
    Json::Obj(vec![
        ("$schema".into(), Json::Str(SCHEMA.into())),
        ("version".into(), Json::Str("2.1.0".into())),
        (
            "runs".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("tool".into(), Json::Obj(vec![("driver".into(), driver)])),
                ("results".into(), results),
            ])]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileClass;
    use crate::Source;
    use std::path::Path;

    #[test]
    fn sarif_shape_and_levels() {
        let sources = [Source {
            rel: "crates/core/src/t.rs".into(),
            text: "fn f() { x.unwrap(); // tw-allow(unwrap): fixture\n y.unwrap(); }\n".into(),
            class: FileClass::library(),
        }];
        let report = crate::run_sources(Path::new("."), &sources);
        let sarif = to_sarif(&report, None);
        assert_eq!(sarif.get("version").and_then(Json::as_str), Some("2.1.0"));
        let runs = sarif.get("runs").and_then(Json::as_arr).expect("runs");
        let results = runs[0]
            .get("results")
            .and_then(Json::as_arr)
            .expect("results");
        assert_eq!(results.len(), 2);
        let levels: Vec<_> = results
            .iter()
            .filter_map(|r| r.get("level").and_then(Json::as_str))
            .collect();
        assert!(levels.contains(&"note"), "{levels:?}");
        assert!(levels.contains(&"warning"), "{levels:?}");
        // The rule catalog rides along for viewers.
        let rules = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Json::as_arr)
            .expect("rules");
        assert_eq!(rules.len(), RULES.len());
        // Valid JSON end to end.
        let text = sarif.to_pretty().expect("serializes");
        assert!(crate::json::parse(&text).is_ok());
    }
}
