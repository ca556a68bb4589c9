//! The correctness check every run makes, independent of the engine that
//! produced the numbers it checks.
//!
//! A frontier point's cost is recomputed with `targets::program_cost`, and its
//! test-set error with the tree-walk interpreter
//! (`targets::eval_float_expr_indexed`) against the samples' Rival truths —
//! never with the block engine the compiler scored it with. Served bodies are
//! compared field by field (`*_hex` bit patterns) with a direct in-process
//! compile of the same request.

use chassis::accuracy::bits_of_error;
use chassis::{CompilationResult, CompileError, Implementation};
use fpcore::hash::ContentHasher;
use service::json::{hex_bits, Json};
use targets::{eval_float_expr_indexed, program_cost, Target};

/// Checks every implementation of one result (frontier plus initial program).
///
/// # Errors
///
/// Describes the first point whose recomputed cost or error differs in any
/// bit from the reported one.
pub fn check_result(target: &Target, result: &CompilationResult) -> Result<(), String> {
    if result.implementations.is_empty() {
        return Err("empty frontier".to_owned());
    }
    for imp in result
        .implementations
        .iter()
        .chain(std::iter::once(&result.initial))
    {
        check_implementation(target, result, imp)?;
    }
    Ok(())
}

fn check_implementation(
    target: &Target,
    result: &CompilationResult,
    imp: &Implementation,
) -> Result<(), String> {
    let cost = program_cost(target, &imp.expr);
    if cost.to_bits() != imp.cost.to_bits() {
        return Err(format!(
            "{}: cost {} reported, {} recomputed",
            imp.rendered, imp.cost, cost
        ));
    }
    let s = &result.samples;
    let n = s.test_len();
    let mut sum = 0.0;
    for i in 0..n {
        let value = eval_float_expr_indexed(target, &imp.expr, &s.vars, &s.test.row(i));
        sum += bits_of_error(value, s.test_truth[i], s.output_type);
    }
    let error = if n == 0 { 0.0 } else { sum / n as f64 };
    if error.to_bits() != imp.error_bits.to_bits() {
        return Err(format!(
            "{}: error {} bits reported, {} recomputed by the tree walk",
            imp.rendered, imp.error_bits, error
        ));
    }
    Ok(())
}

/// A digest of every outcome in a result grid: the typed error kind of each
/// failed cell and the exact bits of every frontier point. Two passes at the
/// same seed must produce the same digest.
pub fn fingerprint<'a>(
    cells: impl IntoIterator<Item = &'a Result<CompilationResult, CompileError>>,
) -> String {
    let mut h = ContentHasher::new();
    for cell in cells {
        match cell {
            Ok(result) => {
                for imp in result
                    .implementations
                    .iter()
                    .chain(std::iter::once(&result.initial))
                {
                    h.str(&imp.rendered);
                    h.u64(imp.cost.to_bits());
                    h.u64(imp.error_bits.to_bits());
                    h.u64(imp.accuracy_bits.to_bits());
                }
            }
            Err(e) => h.str(&e.kind().to_string()),
        }
    }
    h.hex_digest()
}

/// Checks a served `200` body against a direct compile of the same request:
/// the same programs with the same cost, error and accuracy bits.
///
/// # Errors
///
/// Describes the first field that differs.
pub fn served_matches(body: &str, direct: &CompilationResult) -> Result<(), String> {
    let doc = Json::parse(body).map_err(|e| format!("served body is not JSON: {e}"))?;
    let served = doc
        .get("implementations")
        .and_then(Json::as_arr)
        .ok_or("served body has no implementations")?;
    if served.len() != direct.implementations.len() {
        return Err(format!(
            "{} implementations served, {} compiled directly",
            served.len(),
            direct.implementations.len()
        ));
    }
    let initial = doc.get("initial").ok_or("served body has no initial")?;
    for (s, d) in served.iter().chain(std::iter::once(initial)).zip(
        direct
            .implementations
            .iter()
            .chain(std::iter::once(&direct.initial)),
    ) {
        let field = |name: &str| s.get(name).and_then(Json::as_str).unwrap_or("");
        let same = field("rendered") == d.rendered
            && field("cost_hex") == hex_bits(d.cost)
            && field("error_bits_hex") == hex_bits(d.error_bits)
            && field("accuracy_bits_hex") == hex_bits(d.accuracy_bits);
        if !same {
            return Err(format!(
                "served {:?} differs from the direct compile {:?}",
                field("rendered"),
                d.rendered
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chassis::{Config, Session};

    fn compiled() -> (Target, CompilationResult) {
        let core = benchsuite::by_name("sqrt-add-one-minus-sqrt")
            .expect("corpus benchmark")
            .fpcore();
        let target = targets::builtin::by_name("c99").expect("builtin target");
        let result = Session::new(Config::fast())
            .compile(&core, &target)
            .expect("compiles");
        (target, result)
    }

    #[test]
    fn an_honest_frontier_passes_and_a_perturbed_one_is_caught() {
        let (target, result) = compiled();
        check_result(&target, &result).expect("the compiler's own numbers check out");

        let mut bad = result.clone();
        let last = bad.implementations.len() - 1;
        let e = &mut bad.implementations[last].error_bits;
        *e = f64::from_bits(e.to_bits() ^ 1);
        assert!(check_result(&target, &bad).is_err(), "one-ulp error change");

        let mut bad = result.clone();
        bad.initial.cost += 1.0;
        assert!(check_result(&target, &bad).is_err(), "cost change");

        let mut bad = result;
        bad.implementations.clear();
        assert!(check_result(&target, &bad).is_err(), "empty frontier");
    }

    #[test]
    fn the_fingerprint_sees_every_bit_and_every_error_kind() {
        let (_, result) = compiled();
        let a = fingerprint([&Ok(result.clone())]);
        assert_eq!(a, fingerprint([&Ok(result.clone())]));
        let mut bad = result.clone();
        bad.implementations[0].error_bits += 1e-12;
        assert_ne!(a, fingerprint([&Ok(bad)]));
        let unsupported = Err(CompileError::Unsupported("sin".to_owned()));
        assert_ne!(a, fingerprint([&Ok(result), &unsupported]));
    }

    #[test]
    fn a_served_body_must_match_the_direct_compile_bit_for_bit() {
        let (_, result) = compiled();
        let imp = |i: &Implementation| {
            Json::Obj(vec![
                ("rendered".to_owned(), Json::Str(i.rendered.clone())),
                ("cost_hex".to_owned(), Json::Str(hex_bits(i.cost))),
                (
                    "error_bits_hex".to_owned(),
                    Json::Str(hex_bits(i.error_bits)),
                ),
                (
                    "accuracy_bits_hex".to_owned(),
                    Json::Str(hex_bits(i.accuracy_bits)),
                ),
            ])
        };
        let body = |r: &CompilationResult| {
            Json::Obj(vec![
                (
                    "implementations".to_owned(),
                    Json::Arr(r.implementations.iter().map(imp).collect()),
                ),
                ("initial".to_owned(), imp(&r.initial)),
            ])
            .to_string()
        };
        served_matches(&body(&result), &result).expect("identical");
        let mut other = result.clone();
        other.initial.error_bits = f64::from_bits(other.initial.error_bits.to_bits() ^ 1);
        assert!(served_matches(&body(&other), &result).is_err());
        assert!(served_matches("{}", &result).is_err());
    }
}
