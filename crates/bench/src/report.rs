//! Rendering comparison tables the way the paper presents them: scaled
//! execution time (normalized to PiP-MColl), with values beyond the clipping
//! threshold annotated instead of plotted, plus the headline claims.

use pip_mpi_model::Library;

use crate::figures::ComparisonTable;

/// The paper clips competitors whose scaled time exceeds 4× PiP-MColl and
/// prints the value next to the clipped bar (Figure 1 shows "7.05" and
/// "4.38" that way).
pub const CLIP_THRESHOLD: f64 = 4.0;

/// Render a table of *scaled execution time* (the figures' y axis) as
/// GitHub-flavoured markdown.  Values above [`CLIP_THRESHOLD`] are marked
/// with a trailing `*`, mirroring the paper's clipping annotation.
pub fn render_scaled_table(table: &ComparisonTable) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} on {} nodes x {} ppn ({} ranks), scaled execution time (PiP-MColl = 1.0)\n\n",
        table.collective.name(),
        table.cluster.nodes,
        table.cluster.ppn,
        table.cluster.world_size()
    ));
    out.push_str("| Library |");
    for size in &table.sizes {
        out.push_str(&format!(" {size} B |"));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in &table.sizes {
        out.push_str("---|");
    }
    out.push('\n');
    for library in Library::ALL {
        out.push_str(&format!("| {} |", library.name()));
        for idx in 0..table.sizes.len() {
            let scaled = table.scaled(library, idx);
            if scaled > CLIP_THRESHOLD {
                out.push_str(&format!(" {scaled:.2}* |"));
            } else {
                out.push_str(&format!(" {scaled:.2} |"));
            }
        }
        out.push('\n');
    }
    out.push('\n');
    out.push_str("Absolute times (microseconds)\n\n| Library |");
    for size in &table.sizes {
        out.push_str(&format!(" {size} B |"));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in &table.sizes {
        out.push_str("---|");
    }
    out.push('\n');
    for library in Library::ALL {
        out.push_str(&format!("| {} |", library.name()));
        for idx in 0..table.sizes.len() {
            out.push_str(&format!(" {:.1} |", table.series_for(library).time_us[idx]));
        }
        out.push('\n');
    }
    out.push('\n');

    let (size, speedup) = table.best_speedup_vs_fastest_competitor();
    out.push_str(&format!(
        "Best PiP-MColl speedup over the fastest competitor: {speedup:.2}x at {size} B\n"
    ));
    out.push_str(&format!(
        "PiP-MColl fastest at every size: {}\n",
        table.pip_mcoll_fastest_everywhere()
    ));
    out.push_str(&format!(
        "Sizes at which PiP-MPICH is the slowest implementation: {} of {}\n",
        table.pip_mpich_worst_count(),
        table.sizes.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::collective_comparison;
    use pip_collectives::CollectiveKind;
    use pip_netsim::cluster::ClusterSpec;

    #[test]
    fn markdown_table_contains_every_library_and_size() {
        let table =
            collective_comparison(CollectiveKind::Scatter, ClusterSpec::new(4, 3), &[16, 64]);
        let rendered = render_scaled_table(&table);
        for library in Library::ALL {
            assert!(rendered.contains(library.name()));
        }
        assert!(rendered.contains("16 B"));
        assert!(rendered.contains("64 B"));
        assert!(rendered.contains("MPI_Scatter"));
        assert!(rendered.contains("Best PiP-MColl speedup"));
    }
}
