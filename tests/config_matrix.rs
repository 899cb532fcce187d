//! The determinism contract as one matrix: every combination of the engine
//! configuration axes below must make the `vadalog` CLI print byte-identical
//! output on five programs — `run`s of a triangle + lollipop, of strong
//! links (`mcount`) and of company control (`msum`), a four-atom `query`
//! session and a query/append schedule — and on null-free variants of the
//! first and the last two, which the engine admits without the termination
//! strategy, plus a null-free lollipop query/append schedule whose leapfrog
//! tries walk sorted runs on a layered session base, and a three-stratum
//! negation chain, whose output is also the same under every termination
//! strategy. The CLI is driven in-process through `run_cli_with`, the seam `main.rs`
//! wraps, so the matrix runs under the root `cargo test` with no process
//! environment involved.
//!
//! An axis is a row of [`AXES`]: deleting an option field deletes its row
//! and the matrix shrinks with it. Two axes remain, four configurations:
//! `parallelism` (the worker count, which is also the intra-filter shard
//! bound, so 4 shards delta windows and 1 does not) and `join_strategy`.

use vadalog::engine::JoinStrategy;
use vadalog::ReasonerOptions;
use vadalog_cli::run_cli_with;

/// Applies one axis point to the options.
type Setter = fn(&mut ReasonerOptions);

/// The configuration axes and the points each takes.
const AXES: &[(&str, &[(&str, Setter)])] = &[
    (
        "parallelism",
        &[("1", |o| o.parallelism = 1), ("4", |o| o.parallelism = 4)],
    ),
    (
        "join_strategy",
        &[
            ("FreeJoin", |o| o.join_strategy = JoinStrategy::FreeJoin),
            ("Binary", |o| o.join_strategy = JoinStrategy::Binary),
        ],
    ),
];

/// Every point of the product of [`AXES`], labelled `axis=point,...`.
fn configurations() -> Vec<(String, ReasonerOptions)> {
    let mut configs = vec![(String::new(), ReasonerOptions::default())];
    for (axis, points) in AXES {
        configs = configs
            .iter()
            .flat_map(|(label, options)| {
                points.iter().map(move |(point, set)| {
                    let mut options = *options;
                    set(&mut options);
                    let sep = if label.is_empty() { "" } else { "," };
                    (format!("{label}{sep}{axis}={point}"), options)
                })
            })
            .collect();
    }
    configs
}

/// Write `lines` as a program file and return its path.
fn program_file(name: &str, lines: &[String]) -> String {
    let path = std::env::temp_dir().join(format!(
        "vadalog_config_matrix_{}_{name}.vada",
        std::process::id()
    ));
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    path.to_string_lossy().into_owned()
}

/// Run `args` (with the program path first after the command) under every
/// configuration and require each output to equal the first one byte for
/// byte. Returns that output.
fn assert_identical_across_matrix(command: &str, path: &str, rest: &[&str]) -> String {
    let mut args = vec![command.to_owned(), path.to_owned()];
    args.extend(rest.iter().map(|a| a.to_string()));
    let configs = configurations();
    assert_eq!(configs.len(), 4);
    let mut outputs = configs.iter().map(|(label, options)| {
        let out = run_cli_with(&args, *options)
            .unwrap_or_else(|e| panic!("`{command}` failed under {label}: {e}"));
        (label, out)
    });
    let (first_label, first) = outputs.next().unwrap();
    for (label, out) in outputs {
        assert!(
            out == first,
            "`{command}` output under {label} differs from {first_label}:\n\
             --- {first_label}\n{first}\n--- {label}\n{out}"
        );
    }
    std::fs::remove_file(path).ok();
    first
}

/// The chain-plus-shortcuts reachability program the two session programs
/// share: a recursive rule and an existential `Owner` head.
fn reach_rules() -> Vec<String> {
    [
        "Edge(x, y) -> Reach(x, y).",
        "Reach(x, y), Edge(y, z) -> Reach(x, z).",
        "Reach(x, y) -> Owner(p, y).",
        "Owner(p, x), Edge(x, y) -> Owner(p, y).",
        "@output(\"Reach\").",
    ]
    .map(String::from)
    .to_vec()
}

#[test]
fn run_of_cyclic_bodies_is_identical_across_the_matrix() {
    // A fully cyclic triangle body and a lollipop (triangle core + pendant
    // tail), recursion feeding derived edges and tails back through both,
    // and existential heads carrying labelled-null ids. A triangle
    // constraint checks on the leapfrog stage, an EGD on probe stages.
    let mut lines: Vec<String> = [
        "Edge(x, y), Edge(y, z), Edge(x, z) -> Triangle(x, y, z).",
        "Triangle(x, y, z) -> Edge(z, x).",
        "Triangle(x, y, z) -> Owner(p, x).",
        "Edge(x, y), Edge(y, z), Edge(x, z), Pend(z, w) -> Lolli(x, y, z, w).",
        "Lolli(x, y, z, w) -> Pend(x, w).",
        "Lolli(x, y, z, w) -> Owner(p, w).",
        "Edge(x, y), Edge(y, z), Edge(x, z), x < y, y < z -> false.",
        "Pend(z, w), Pend(z, v), z > 9, w < v -> w = v.",
        "@output(\"Triangle\").",
        "@output(\"Lolli\").",
        "@output(\"Owner\").",
    ]
    .map(String::from)
    .to_vec();
    for x in 0..12 {
        for y in 0..12 {
            if (x * 5 + y * 3) % 7 < 3 {
                lines.push(format!("Edge({x}, {y})."));
            }
        }
    }
    lines.extend((0..12).map(|z| format!("Pend({z}, {}).", z + 100)));
    let path = program_file("joins", &lines);
    let out = assert_identical_across_matrix("run", &path, &[]);
    assert!(out.contains("\nTriangle("), "{out}");
    assert!(out.contains("\nLolli("), "{out}");
    assert!(out.contains("constraint violated:"), "{out}");
    assert!(out.contains("egd violated:"), "{out}");
    assert!(
        out.contains("_:ν"),
        "labelled nulls are part of the contract"
    );

    // Aggregates behind the join: strong links (`mcount` over persons that
    // include invented nulls, a pushed `x > y`, a residual `w >= 2`) and
    // company control (`msum` windowed by contributor, feeding recursion).
    let mut links: Vec<String> = [
        "KeyPerson(x, p) -> PSC(x, p).",
        "Company(x) -> PSC(x, p).",
        "Control(y, x), PSC(y, p) -> PSC(x, p).",
        "PSC(x, p), PSC(y, p), x > y, w = mcount(p), w >= 2 -> StrongLink(x, y, w).",
        "@output(\"StrongLink\").",
    ]
    .map(String::from)
    .to_vec();
    for c in 0..24 {
        links.push(format!("Company(\"c{c}\")."));
        for j in 0..3 {
            links.push(format!(
                "KeyPerson(\"c{c}\", \"p{}\").",
                (c * 7 + j * 5) % 17
            ));
        }
        if c % 3 != 0 {
            links.push(format!("Control(\"c{}\", \"c{c}\").", (c * 5) % 24));
        }
    }
    let links = assert_identical_across_matrix("run", &program_file("links", &links), &[]);
    assert!(links.contains("\nStrongLink("), "{links}");

    let mut ownership: Vec<String> = [
        "Own(x, y, w), w > 0.5 -> Control(x, y).",
        "Control(x, y), Own(y, z, w), v = msum(w, <y>), v > 0.5 -> Control(x, z).",
        "@output(\"Control\").",
    ]
    .map(String::from)
    .to_vec();
    for x in 0..20 {
        for k in 1..4 {
            let y = (x * 3 + k * 7) % 20;
            let w = [0.15, 0.3, 0.55][(x + k) % 3];
            ownership.push(format!("Own(\"o{x}\", \"o{y}\", {w})."));
        }
    }
    let control =
        assert_identical_across_matrix("run", &program_file("ownership", &ownership), &[]);
    assert!(control.contains("\nControl("), "{control}");
}

#[test]
fn query_session_is_identical_across_the_matrix() {
    let mut lines = reach_rules();
    lines.extend((0..40).map(|i| format!("Edge(\"n{i}\", \"n{}\").", i + 1)));
    lines.extend(
        (0..40)
            .step_by(3)
            .map(|i| format!("Edge(\"n{i}\", \"n{}\").", (i * 7) % 40)),
    );
    let path = program_file("qsession", &lines);
    let out = assert_identical_across_matrix(
        "query",
        &path,
        &[
            "Reach(\"n0\", y)",
            "Reach(x, \"n5\")",
            "Owner(p, \"n3\")",
            "Reach(\"n2\", y)",
        ],
    );
    assert_eq!(out.matches("% query ").count(), 4, "{out}");
    // The existential query falls back to bottom-up and answers with nulls.
    assert!(out.contains("Owner(\"_:ν"), "{out}");
}

/// The three programs above without their existential `Owner(p, …)`
/// rules: runs that can never hold a labelled null, so admission is the
/// store's own dedup instead of the termination strategy.
#[test]
fn null_free_programs_are_identical_across_the_matrix() {
    let mut joins: Vec<String> = [
        "Edge(x, y), Edge(y, z), Edge(x, z) -> Triangle(x, y, z).",
        "Triangle(x, y, z) -> Edge(z, x).",
        "Edge(x, y), Edge(y, z), Edge(x, z), Pend(z, w) -> Lolli(x, y, z, w).",
        "Lolli(x, y, z, w) -> Pend(x, w).",
        "@output(\"Triangle\").",
        "@output(\"Lolli\").",
    ]
    .map(String::from)
    .to_vec();
    for x in 0..12 {
        for y in 0..12 {
            if (x * 5 + y * 3) % 7 < 3 {
                joins.push(format!("Edge({x}, {y})."));
            }
        }
    }
    joins.extend((0..12).map(|z| format!("Pend({z}, {}).", z + 100)));
    let run = assert_identical_across_matrix("run", &program_file("nf_joins", &joins), &[]);
    assert!(
        run.contains("\nTriangle(") && run.contains("\nLolli("),
        "{run}"
    );

    let mut reach: Vec<String> = reach_rules()
        .into_iter()
        .filter(|rule| !rule.contains("Owner"))
        .collect();
    reach.extend((0..30).map(|i| format!("Edge(\"n{i}\", \"n{}\").", i + 1)));
    reach.extend(
        (0..30)
            .step_by(3)
            .map(|i| format!("Edge(\"n{i}\", \"n{}\").", (i * 7) % 30)),
    );
    let queries = assert_identical_across_matrix(
        "query",
        &program_file("nf_qsession", &reach),
        &["Reach(\"n0\", y)", "Reach(x, \"n5\")", "Reach(\"n2\", y)"],
    );
    assert_eq!(queries.matches("% query ").count(), 3, "{queries}");
    let appends = assert_identical_across_matrix(
        "query",
        &program_file("nf_append", &reach),
        &[
            "Reach(\"n0\", y)",
            "+Edge(\"n30\", \"n31\")",
            "+Edge(\"n31\", \"n32\")",
            "Reach(\"n0\", y)",
            "+Edge(\"n32\", \"n0\")",
            "Reach(\"n5\", y)",
        ],
    );
    assert_eq!(appends.matches("% append ").count(), 3, "{appends}");
    assert!(appends.contains("Reach(\"n0\", \"n32\")."), "{appends}");

    // The lollipop rule alone keeps `Edge` and `Pend` pure EDB, so after
    // the appends promote base layers the bound queries leapfrog their
    // triangle core over tries mounted on the layered base.
    let lolli: Vec<String> = joins
        .iter()
        .filter(|l| !l.contains("Triangle") && !l.starts_with("Lolli("))
        .cloned()
        .collect();
    let layered = assert_identical_across_matrix(
        "query",
        &program_file("nf_lolli", &lolli),
        &[
            "Lolli(0, y, z, w)",
            "+Edge(0, 20)",
            "+Edge(20, 5)",
            "+Edge(20, 1)",
            "+Pend(20, 120)",
            "Lolli(0, y, z, w)",
            "Lolli(20, y, z, w)",
        ],
    );
    assert_eq!(layered.matches("% append ").count(), 4, "{layered}");
    assert!(layered.contains("Lolli(0, 20, 5, 105)."), "{layered}");
    assert!(layered.contains("Lolli(20, 5, 1, 101)."), "{layered}");
    // Three strata, rules written top stratum first: the output is also
    // the same under every termination strategy.
    let strata: Vec<String> = [
        "V(x), not Isolated(x) -> Member(x).",
        "V(x), not Touched(x) -> Isolated(x).",
        "T(x, y) -> Touched(x).",
        "T(x, y) -> Touched(y).",
        "E(x, y) -> T(x, y).",
        "T(x, y), E(y, z) -> T(x, z).",
        "E(1, 2). E(2, 3). V(1). V(2). V(3). V(4).",
        "@output(\"Member\").",
        "@output(\"Isolated\").",
    ]
    .map(String::from)
    .to_vec();
    let stratified: Vec<String> = ["warded", "trivial-iso"]
        .iter()
        .map(|kind| {
            let path = program_file(&format!("strata_{kind}"), &strata);
            assert_identical_across_matrix("run", &path, &["--termination", kind])
        })
        .collect();
    assert!(stratified.iter().all(|out| *out == stratified[0]));
    assert!(
        stratified[0].contains("% Member (3 facts)\n") && stratified[0].contains("Isolated(4)."),
        "{}",
        stratified[0]
    );

    for out in [&run, &queries, &appends, &layered, &stratified[0]] {
        assert!(!out.contains("_:ν"), "no labelled nulls: {out}");
    }
}

#[test]
fn append_schedule_is_identical_across_the_matrix() {
    // Queries interleaved with appends that promote overlay layers into
    // the session base: layered probes and the wake-list scheduler must be
    // invisible in the output.
    let mut lines = reach_rules();
    lines.extend((0..30).map(|i| format!("Edge(\"n{i}\", \"n{}\").", i + 1)));
    let path = program_file("append", &lines);
    let out = assert_identical_across_matrix(
        "query",
        &path,
        &[
            "Reach(\"n0\", y)",
            "+Edge(\"n30\", \"n31\")",
            "+Edge(\"n31\", \"n32\")",
            "Reach(\"n0\", y)",
            "Owner(p, \"n31\")",
            "+Edge(\"n32\", \"n0\")",
            "Reach(\"n5\", y)",
        ],
    );
    assert_eq!(out.matches("% append ").count(), 3, "{out}");
    assert!(out.contains("Reach(\"n0\", \"n32\")."), "{out}");
}
