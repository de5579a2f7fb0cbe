//! Golden renderings of `ppl analyze`: for each edit below, the human
//! table and the `ppl-analyze/v1` JSON report are pinned byte for byte
//! under `tests/golden/analyze/`, so a change to how effect facts are
//! computed or rendered cannot move a statement's verdict, its names or
//! the slice's sites unnoticed.

use std::fs;
use std::path::PathBuf;

use ppl_cli::cmd_analyze;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The golden edits: a name, then the old and new program.
const EDITS: [(&str, &str, &str); 4] = [
    (
        "burglary",
        "programs/burglary.ppl",
        "programs/burglary_earthquake.ppl",
    ),
    ("gmm", "programs/gmm.ppl", "programs/gmm_wide.ppl"),
    (
        "geometric",
        "programs/geometric.ppl",
        "programs/geometric_third.ppl",
    ),
    (
        "nested",
        "tests/golden/analyze/nested_p.ppl",
        "tests/golden/analyze/nested_q.ppl",
    ),
];

fn read(path: &str) -> String {
    fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn analyze_renderings_match_the_golden_files() {
    for (name, p, q) in EDITS {
        let (p, q) = (read(p), read(q));
        for (json, ext) in [(false, "txt"), (true, "json")] {
            let rendered = cmd_analyze(&p, &q, json).unwrap();
            let expected = read(&format!("tests/golden/analyze/{name}.{ext}"));
            assert_eq!(rendered, expected, "golden {name}.{ext}");
        }
    }
}
