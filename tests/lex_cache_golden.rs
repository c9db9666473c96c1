//! Golden equivalence test for the shared lex cache.
//!
//! The cache is a pure memoization: building a [`Dataset`] with it must
//! produce byte-identical results to the uncached scanner — same pattern
//! table, same line records, and a byte-identical serialized
//! [`ContractSet`] — at every parallelism level. The inputs are the
//! checked-in sample configurations under `examples/configs/`.

use concord_core::{learn, Dataset, LearnParams};
use concord_lexer::{LexCache, Lexer};

fn example_configs() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/configs");
    let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/configs exists")
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            if path.extension().is_some_and(|e| e == "cfg") {
                let name = path.file_stem().unwrap().to_string_lossy().into_owned();
                let text = std::fs::read_to_string(&path).expect("readable config");
                Some((name, text))
            } else {
                None
            }
        })
        .collect();
    out.sort();
    assert!(
        out.len() >= 6,
        "expected the checked-in sample configs, found {}",
        out.len()
    );
    out
}

fn assert_datasets_identical(a: &Dataset, b: &Dataset, label: &str) {
    assert_eq!(a.pattern_count(), b.pattern_count(), "{label}: patterns");
    for (id, text) in a.table.iter() {
        assert_eq!(text, b.table.text(id), "{label}: pattern {id:?}");
    }
    assert_eq!(a.configs.len(), b.configs.len(), "{label}: configs");
    for (ca, cb) in a.configs.iter().zip(&b.configs) {
        let name = a.name_of(ca);
        assert_eq!(name, b.name_of(cb), "{label}");
        assert_eq!(ca.format, cb.format, "{label}: {name}");
        assert_eq!(ca.len(), cb.len(), "{label}: {name}");
        for (la, lb) in ca.lines(&a.arenas).zip(cb.lines(&b.arenas)) {
            assert_eq!(la.pattern, lb.pattern, "{label}: {name}:{}", la.line_no);
            assert_eq!(la.params, lb.params, "{label}: {name}:{}", la.line_no);
            assert_eq!(la.line_no, lb.line_no, "{label}: {name}");
            assert_eq!(la.original, lb.original, "{label}: {name}");
            assert_eq!(la.is_meta, lb.is_meta, "{label}: {name}");
        }
    }
}

#[test]
fn cached_build_is_byte_identical_to_uncached() {
    let configs = example_configs();
    let lexer = Lexer::standard();
    let params = LearnParams {
        support: 3,
        ..LearnParams::default()
    };

    let (reference, _) =
        Dataset::build_with_stats(&configs, &[], &lexer, true, 1, None).expect("uncached build");
    let reference_contracts = learn(&reference, &params).to_json();

    for parallelism in [1usize, 8] {
        let cache = LexCache::new();
        let (cached, stats) =
            Dataset::build_with_stats(&configs, &[], &lexer, true, parallelism, Some(&cache))
                .expect("cached build");
        let label = format!("parallelism {parallelism}");
        assert_datasets_identical(&reference, &cached, &label);

        // The whole point of the cache: repeated line shapes hit.
        assert!(stats.cache_enabled, "{label}");
        assert!(
            stats.cache_hits > 0,
            "{label}: expected hits over {} lookups",
            stats.cache_hits + stats.cache_misses
        );
        // Every distinct line shape missed exactly once, at every
        // parallelism.
        assert_eq!(
            stats.cache_misses as usize,
            cache.len(),
            "{label}: one miss per distinct line shape"
        );

        let contracts = learn(&cached, &params).to_json();
        assert_eq!(
            contracts, reference_contracts,
            "{label}: serialized contracts differ"
        );
    }
}

#[test]
fn shared_cache_across_builds_keeps_outputs_identical() {
    let configs = example_configs();
    let lexer = Lexer::standard();
    let cache = LexCache::new();

    let (first, first_stats) =
        Dataset::build_with_stats(&configs, &[], &lexer, true, 4, Some(&cache)).expect("build");
    let (second, second_stats) =
        Dataset::build_with_stats(&configs, &[], &lexer, true, 4, Some(&cache)).expect("rebuild");

    assert_datasets_identical(&first, &second, "shared cache rebuild");
    // The second pass over identical inputs is answered entirely from the
    // cache.
    assert_eq!(second_stats.cache_misses, 0);
    assert_eq!(
        second_stats.cache_hits,
        first_stats.cache_hits + first_stats.cache_misses
    );
}
