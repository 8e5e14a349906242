//! EXPERIMENTS.md quotes the run that the surface gate guards.
//!
//! `SURFACES.txt` is the stdout of `iobench all --jobs 1` at the paper's
//! sizes, and `scripts/surfaces.sh --check` holds the code to it. These
//! tests hold EXPERIMENTS.md to the same text, so a re-baseline that moves
//! a cell fails here until the document says so too. They read two files
//! and run no simulation.
//!
//! Fenced blocks in EXPERIMENTS.md come in three kinds, told apart by the
//! fence's info string:
//!
//! - untagged: a verbatim quote of `iobench all` output, which must appear
//!   in `SURFACES.txt` line for line;
//! - `sh`: commands to run;
//! - `trace`: `--trace` tables, which the gated run does not print.

use std::path::Path;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The body of the `SURFACES.txt` section whose title line is `title`: the
/// lines up to the next blank line after the table.
fn surface_section<'a>(surfaces: &'a str, title: &str) -> Vec<&'a str> {
    let mut lines = surfaces.lines().skip_while(|l| *l != title);
    assert!(lines.next().is_some(), "SURFACES.txt has no {title:?}");
    lines
        .skip_while(|l| l.is_empty())
        .take_while(|l| !l.is_empty())
        .collect()
}

/// The markdown table rows of the EXPERIMENTS.md section under `heading`
/// (a `## ` line starting with it), each split into trimmed cells with
/// `**` emphasis removed.
fn doc_table(doc: &str, heading: &str) -> Vec<Vec<String>> {
    let start = format!("## {heading}");
    let rows: Vec<Vec<String>> = doc
        .lines()
        .skip_while(|l| !l.starts_with(&start))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter(|l| l.starts_with('|') && !l.starts_with("|---"))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.replace("**", "").trim().to_string())
                .collect()
        })
        .collect();
    assert!(
        !rows.is_empty(),
        "EXPERIMENTS.md has no table under {start:?}"
    );
    rows
}

/// Every "<row> measured" row of a Figure 10/11 table equals the row of
/// the same label in the surface table.
fn measured_rows_match(doc_heading: &str, surface_title: &str) {
    let (doc, surfaces) = (read("EXPERIMENTS.md"), read("SURFACES.txt"));
    let surface = surface_section(&surfaces, surface_title);
    let mut checked = 0;
    for row in doc_table(&doc, doc_heading) {
        let Some(label) = row[0].strip_suffix(" measured") else {
            continue;
        };
        let want: Vec<&str> = surface
            .iter()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|cells| cells.first() == Some(&label))
            .unwrap_or_else(|| panic!("{surface_title:?} has no row {label}"))
            .split_off(1);
        assert_eq!(row[1..], want, "{doc_heading}: row {label} is stale");
        checked += 1;
    }
    assert!(checked > 0, "{doc_heading}: no measured rows");
}

#[test]
fn figure10_measured_rows_are_the_gated_cells() {
    measured_rows_match(
        "Figure 10",
        "Figure 10: IObench transfer rates in KB/second",
    );
}

#[test]
fn figure11_measured_rows_are_the_gated_ratios() {
    measured_rows_match("Figure 11", "Figure 11: IObench transfer rate ratios");
}

#[test]
fn figure12_seconds_are_the_gated_seconds() {
    let (doc, surfaces) = (read("EXPERIMENTS.md"), read("SURFACES.txt"));
    // Surface rows read "2.6s  4.1.1 UFS, no rotdelays, 16MB mmap read";
    // the table header is two lines.
    let surface = surface_section(&surfaces, "Figure 12: System CPU comparison");
    let rows = doc_table(&doc, "Figure 12");
    assert_eq!(rows.len(), 1 + surface.len() - 2, "Figure 12 row count");
    for (row, line) in rows[1..].iter().zip(&surface[2..]) {
        let (secs, notes) = line.split_once(' ').expect("seconds, then notes");
        assert!(
            notes.trim().starts_with(&row[0]),
            "Figure 12 row {:?} is not {notes:?}",
            row[0]
        );
        let measured = row.last().expect("measured column");
        assert_eq!(
            measured.replace(' ', ""),
            secs,
            "Figure 12 row {:?} is stale",
            row[0]
        );
    }
}

#[test]
fn quoted_output_blocks_are_verbatim_in_the_surface() {
    let (doc, surfaces) = (read("EXPERIMENTS.md"), read("SURFACES.txt"));
    let surfaces = format!("\n{surfaces}");
    let mut lines = doc.lines().enumerate();
    let mut quoted = 0;
    while let Some((n, line)) = lines.next() {
        let Some(tag) = line.strip_prefix("```") else {
            continue;
        };
        let mut block = String::from("\n");
        for (_, l) in lines.by_ref().take_while(|(_, l)| *l != "```") {
            block.push_str(l);
            block.push('\n');
        }
        match tag {
            "" => {
                assert!(
                    surfaces.contains(&block),
                    "EXPERIMENTS.md:{}: this block is not in SURFACES.txt:{block}",
                    n + 1
                );
                quoted += 1;
            }
            "sh" | "trace" => {}
            other => panic!(
                "EXPERIMENTS.md:{}: fence tag {other:?}: quote `iobench all` \
                 output untagged, commands as `sh`, --trace tables as `trace`",
                n + 1
            ),
        }
    }
    assert!(quoted > 0, "EXPERIMENTS.md quotes no output");
}
