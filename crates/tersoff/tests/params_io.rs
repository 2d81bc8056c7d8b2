//! LAMMPS `*.tersoff` file I/O: bitwise round-trips for every shipped
//! parameter table, tolerant parsing (comments, wrapped entries), and the
//! error paths for malformed files.

use tersoff::params::TersoffParams;
use tersoff::vector_kernel::PackedParams;

/// Every shipped table with the `pair_coeff`-style element mapping it uses.
fn shipped_tables() -> Vec<(&'static str, TersoffParams, Vec<&'static str>)> {
    vec![
        ("silicon", TersoffParams::silicon(), vec!["Si"]),
        ("silicon_b", TersoffParams::silicon_b(), vec!["Si"]),
        ("carbon", TersoffParams::carbon(), vec!["C"]),
        ("germanium", TersoffParams::germanium(), vec!["Ge"]),
        (
            "silicon_carbide",
            TersoffParams::silicon_carbide(),
            vec!["Si", "C"],
        ),
        (
            "silicon_germanium",
            TersoffParams::silicon_germanium(),
            vec!["Si", "Ge"],
        ),
    ]
}

#[test]
fn to_lammps_parse_lammps_round_trips_bitwise() {
    // Rust's f64 Display prints the shortest string that reparses to the
    // same bits, so write → parse must reproduce every entry exactly, for
    // all 14 published constants AND the precomputed derived quantities
    // (f64 PartialEq is bitwise for the finite values in these tables).
    for (name, params, elements) in shipped_tables() {
        let text = params.to_lammps();
        let reparsed = TersoffParams::parse_lammps(&text, &elements)
            .unwrap_or_else(|e| panic!("{name}: round-trip parse failed: {e}"));
        assert_eq!(reparsed.elements, params.elements, "{name}: element order");
        assert_eq!(
            reparsed.entries(),
            params.entries(),
            "{name}: entries differ after round-trip"
        );
        assert_eq!(reparsed.max_cutoff, params.max_cutoff, "{name}: max_cutoff");
        // A second generation from the reparsed set must be byte-identical:
        // the fixed point is reached after one trip.
        assert_eq!(reparsed.to_lammps(), text, "{name}: second trip differs");
    }
}

#[test]
fn every_shipped_table_packs_for_the_vector_kernels() {
    // `PackedParams::new` asserts that each (i, j, k) cutoff equals the
    // (i, k, k) one, which schemes 1b/1c rely on.
    for (_, params, _) in shipped_tables() {
        PackedParams::<f32>::new(&params);
        PackedParams::<f64>::new(&params);
    }
}

#[test]
#[should_panic(expected = "triplet Si C Si has R = 2.9")]
fn a_cutoff_that_depends_on_j_is_rejected_by_the_vector_kernels() {
    // LAMMPS and `Ref` accept a file whose (Si, C, Si) R differs from the
    // (Si, Si, Si) one; the vector kernels evaluate each (i, k) cutoff once
    // for every j, so they must refuse it and name the entry.
    let text: String = TersoffParams::silicon_carbide()
        .to_lammps()
        .lines()
        .map(|line| {
            let mut tokens: Vec<&str> = line.split_whitespace().collect();
            if tokens.starts_with(&["Si", "C", "Si"]) {
                tokens[13] = "2.9";
            }
            tokens.join(" ") + "\n"
        })
        .collect();
    let params = TersoffParams::parse_lammps(&text, &["Si", "C"]).unwrap();
    assert_eq!(params.triplet(0, 1, 0).bigr, 2.9);
    PackedParams::<f32>::new(&params);
}

#[test]
fn round_trip_covers_every_triplet_of_the_mixed_tables() {
    // The 1989-mixed two-element tables have 8 distinct (i, j, k) entries;
    // make sure the file format preserves the ordered-triplet layout and
    // not just the (i, i, i) diagonal.
    let params = TersoffParams::silicon_germanium();
    let reparsed = TersoffParams::parse_lammps(&params.to_lammps(), &["Si", "Ge"]).unwrap();
    for i in 0..2 {
        for j in 0..2 {
            for k in 0..2 {
                assert_eq!(
                    reparsed.triplet(i, j, k),
                    params.triplet(i, j, k),
                    "triplet ({i}, {j}, {k})"
                );
            }
        }
    }
    // χ(Si,Ge) = 1.00061 only scales the MIXED attractive prefactor; the
    // pure Si and pure Ge pair entries must survive the trip untouched.
    assert_eq!(reparsed.pair(0, 0), TersoffParams::silicon().pair(0, 0));
    assert_eq!(reparsed.pair(1, 1), TersoffParams::germanium().pair(0, 0));
}

#[test]
fn parser_ignores_comments_and_blank_lines() {
    let text = "\
# full-line comment
   # indented comment

Si Si Si 3.0 1.0 0.0 100390.0 16.217 -0.59825 0.78734 1.1e-6 1.73222 471.18 2.85 0.15 2.4799 1830.8  # trailing comment
";
    let parsed = TersoffParams::parse_lammps(text, &["Si"]).unwrap();
    assert_eq!(parsed.pair(0, 0), TersoffParams::silicon().pair(0, 0));
}

#[test]
fn parser_accepts_entries_wrapped_over_multiple_lines() {
    // LAMMPS files conventionally wrap each entry after the first few
    // columns; the parser tokenizes across newlines, so any wrapping of the
    // same 17 tokens must parse identically.
    let wrapped = "\
Si Si Si 3.0 1.0 0.0
         100390.0 16.217 -0.59825   # c d h
         0.78734 1.1e-6 1.73222 471.18
         2.85 0.15 2.4799 1830.8
";
    let parsed = TersoffParams::parse_lammps(wrapped, &["Si"]).unwrap();
    assert_eq!(parsed.pair(0, 0), TersoffParams::silicon().pair(0, 0));
}

#[test]
fn parser_rejects_wrong_token_count() {
    // 16 tokens: one number short of a full entry.
    let text = "Si Si Si 3.0 1.0 0.0 100390.0 16.217 -0.59825 0.78734 1.1e-6 1.73222 471.18 2.85 0.15 2.4799";
    let err = TersoffParams::parse_lammps(text, &["Si"]).unwrap_err();
    assert!(
        err.contains("not a multiple of 17"),
        "unexpected error: {err}"
    );
}

#[test]
fn parser_rejects_bad_numeric_token() {
    let text = "Si Si Si 3.0 1.0 0.0 100390.0 16.217 -0.59825 0.78734 1.1e-6 1.73222 471.18 2.85 0.15 2.4799 oops";
    let err = TersoffParams::parse_lammps(text, &["Si"]).unwrap_err();
    assert!(
        err.contains("bad number in entry Si Si Si"),
        "unexpected error: {err}"
    );
}

#[test]
fn parser_rejects_missing_triplets() {
    // A two-element mapping needs all 8 ordered triplets; supplying only
    // the Si entry must name a missing mixed triplet, not panic.
    let text = TersoffParams::silicon().to_lammps();
    let err = TersoffParams::parse_lammps(&text, &["Si", "Ge"]).unwrap_err();
    assert!(
        err.contains("missing entry for triplet"),
        "unexpected error: {err}"
    );
    assert!(
        err.contains("Ge"),
        "error should name the absent element: {err}"
    );
}

#[test]
fn parser_rejects_mapping_to_an_unknown_element() {
    // Element names request a species the file never defines.
    let text = TersoffParams::carbon().to_lammps();
    let err = TersoffParams::parse_lammps(&text, &["Si"]).unwrap_err();
    assert!(
        err.contains("missing entry for triplet Si Si Si"),
        "unexpected error: {err}"
    );
}
