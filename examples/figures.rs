//! Regenerates the paper's illustrative figures (2–8) as ASCII, driven by
//! the *actual* engines and allocator — not hard-coded pictures. If an
//! algorithm regresses, its figure changes.
//!
//! ```text
//! cargo run --release --example figures -- [2|3|4|5|6|7|8]    (default: all)
//! ```

use clufs::{DelayedWrite, ReadAhead, Tuning, WriteAction};
use simkit::Sim;
use ufs::build_test_world;
use vfs::{AccessMode, FileSystem, Vnode};

fn fig2() {
    println!("Figure 2: UFS getpage algorithm (see ufs::vnops::getpage)\n");
    println!("    bmap() to find disk location");
    println!("    if (requested page not in cache) {{");
    println!("        start I/O for requested");
    println!("    }}");
    println!("    if (sequential I/O) {{");
    println!("        do another bmap() if necessary");
    println!("        start I/O for next page");
    println!("    }}");
    println!("    if (first page was not in cache) {{");
    println!("        wait for I/O to finish");
    println!("    }}");
    println!("    predict next I/O location\n");
}

/// Renders a row of per-page boxes from the read-ahead engine's behavior.
fn readahead_trace(maxcontig: u32, pages: u64) -> Vec<Vec<String>> {
    let mut ra = ReadAhead::new();
    let mut resident = std::collections::BTreeSet::new();
    let mut cells = Vec::new();
    for lbn in 0..pages {
        let cached = resident.contains(&lbn);
        let plan = ra.on_access(
            lbn,
            cached,
            |p| {
                if p < 1000 {
                    maxcontig
                } else {
                    0
                }
            },
            0,
        );
        let mut cell = Vec::new();
        if let Some(run) = plan.sync {
            cell.push(format!(
                "sync {}",
                (run.lbn..run.lbn + run.blocks as u64)
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            resident.extend(run.lbn..run.lbn + run.blocks as u64);
        }
        if let Some(run) = plan.readahead {
            cell.push(format!(
                "async {}",
                (run.lbn..run.lbn + run.blocks as u64)
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            resident.extend(run.lbn..run.lbn + run.blocks as u64);
            if maxcontig == 1 {
                cell.push(format!("nextr = {}", ra.predicted_next()));
            } else {
                cell.push(format!("nextrio = {}", run.lbn));
            }
        }
        cells.push(cell);
    }
    cells
}

fn render_boxes(title: &str, cells: &[Vec<String>]) {
    println!("{title}\n");
    let width = 14usize;
    let rows = cells.iter().map(|c| c.len()).max().unwrap_or(0);
    let header: String = (0..cells.len())
        .map(|i| format!("| {:w$}", format!("page {i}"), w = width - 2))
        .collect();
    println!("{header}|");
    println!("{}", "-".repeat(width * cells.len() + 1));
    for r in 0..rows {
        let line: String = cells
            .iter()
            .map(|c| {
                format!(
                    "| {:w$}",
                    c.get(r).cloned().unwrap_or_default(),
                    w = width - 2
                )
            })
            .collect();
        println!("{line}|");
    }
    println!();
}

fn fig3() {
    render_boxes(
        "Figure 3: access pattern showing read ahead (block mode)",
        &readahead_trace(1, 3),
    );
}

fn fig6() {
    render_boxes(
        "Figure 6: clustered reads when maxcontig = 3",
        &readahead_trace(3, 7),
    );
}

fn fig7() {
    let mut dw = DelayedWrite::new();
    let cells: Vec<Vec<String>> = (0..6u64)
        .map(|off| match dw.on_putpage(off, 3) {
            WriteAction::Delay => vec!["lie".to_string()],
            WriteAction::Push(r) => vec![format!(
                "push {}",
                r.map(|b| b.to_string()).collect::<Vec<_>>().join(",")
            )],
            WriteAction::PushThenDelay(r) => vec![format!(
                "push {}; delay",
                r.map(|b| b.to_string()).collect::<Vec<_>>().join(",")
            )],
        })
        .collect();
    render_boxes("Figure 7: clustered writes with maxcontig = 3", &cells);
}

fn fig8() {
    println!("Figure 8: clustered write algorithm (see clufs::DelayedWrite)\n");
    println!("    if (delaylen < maxcontig &&");
    println!("        delayoff + delaylen == off) {{");
    println!("            delaylen += PAGESIZE");
    println!("            return");
    println!("    }}");
    println!("    find all pages from delayoff");
    println!("            to delayoff + delaylen");
    println!("    while (more pages) {{");
    println!("            bmap()");
    println!("            start I/O for this cluster");
    println!("            subtract that many pages");
    println!("    }}\n");
}

/// Figures 4/5: actual allocator layout of one file on one track, with and
/// without rotdelay.
fn layout_figure(rotdelay: bool) {
    let tuning = if rotdelay {
        Tuning::config_b() // 4 ms rotdelay: interleaved.
    } else {
        Tuning::config_a() // contiguous.
    };
    let sim = Sim::new();
    let s = sim.clone();
    let occupied = sim.run_until(async move {
        let w = build_test_world(&s, tuning).await.unwrap();
        let f = w.fs.create("layout").await.unwrap();
        f.write(0, &vec![1u8; 8 * 8192], AccessMode::Copy)
            .await
            .unwrap();
        let extents = f.extents().await.unwrap();
        let base = extents[0].1;
        let mut slots: Vec<Option<u64>> = vec![None; 16];
        for (lbn, pbn, len) in extents {
            for i in 0..len as u64 {
                let slot = (pbn + i).saturating_sub(base) as usize;
                if slot < slots.len() {
                    slots[slot] = Some(lbn + i);
                }
            }
        }
        slots
    });
    let title = if rotdelay {
        "Figure 4: interleaved blocks (rotdelay = 4ms). One gap block between\nlogical neighbors; the gaps go to other files."
    } else {
        "Figure 5: non-interleaved blocks (rotdelay = 0). Logical blocks are\nphysically adjacent."
    };
    println!("{title}\n");
    let row: String = occupied
        .iter()
        .map(|s| match s {
            Some(lbn) => format!("|{:^4}", lbn),
            None => "|    ".to_string(),
        })
        .collect();
    println!("{row}|");
    println!("{}", "-".repeat(occupied.len() * 5 + 1));
    println!("(each cell is one 8 KB file system block on the disk)\n");
}

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let want = |n: &str| which.is_empty() || which.iter().any(|a| a == n);
    if want("2") {
        fig2();
    }
    if want("3") {
        fig3();
    }
    if want("4") {
        layout_figure(true);
    }
    if want("5") {
        layout_figure(false);
    }
    if want("6") {
        fig6();
    }
    if want("7") {
        fig7();
    }
    if want("8") {
        fig8();
    }
}
