//! The layer probe: re-issues, at one workload's sizes, the lower-layer
//! public calls its representative operation makes, each inside a span
//! named `<crate>.<call>[.<relation>]`. The spans become the per-layer
//! metrics.

use std::hint::black_box;

use rand::rngs::StdRng;
use zkdet_circuits::exchange::{KeyNegotiationCircuit, RangePredicate, ValidationCircuit};
use zkdet_circuits::EncryptionCircuit;
use zkdet_crypto::commitment::CommitmentScheme;
use zkdet_crypto::mimc::MimcCtr;
use zkdet_field::{Field, Fr, PrimeField};
use zkdet_kzg::Srs;
use zkdet_plonk::{Plonk, Proof, VerifyingKey};
use zkdet_poly::{DensePolynomial, EvaluationDomain};
use zkdet_storage::{FaultPlan, PinOwner, QuorumConfig, StorageNetwork};

use crate::Spans;

/// Dependent Fr multiplications timed for `field.fr_mul_ns`.
pub const FR_MUL_CHAIN: u32 = 200_000;

/// Proofs of the three relations at the workload's sizes, kept so the
/// workload can verify them against its own chain.
pub struct Proofs {
    /// `(vk, publics, proof)` of π_e, π_p and π_k, in that order.
    pub items: Vec<(VerifyingKey, Vec<Fr>, Proof)>,
    /// Padded PLONK domain size of π_e.
    pub domain_e: usize,
    /// Padded PLONK domain size of π_p.
    pub domain_p: usize,
    /// Exact gate counts of π_e, π_p and π_k.
    pub gates: [usize; 3],
}

/// Synthesizes, preprocesses, proves and verifies π_e (`len` blocks),
/// π_p (`len` entries, `bits`-bit range) and π_k over `srs`.
pub fn relations(
    t: &Spans,
    srs: &Srs,
    len: usize,
    bits: usize,
    rng: &mut StdRng,
) -> Result<Proofs, String> {
    let data: Vec<Fr> = (0..len)
        .map(|i| Fr::from((i as u64 * 7 + 3) % (1u64 << bits.min(63))))
        .collect();
    let key = Fr::random(rng);
    let nonce = Fr::random(rng);
    let (c, o) = t.run("crypto.poseidon_commit", || {
        CommitmentScheme::commit(&data, rng)
    });
    let ctr = MimcCtr::new(key, nonce);
    let ct = t.run("crypto.mimc_encrypt", || ctr.encrypt(&data));
    let plain = t.run("crypto.mimc_decrypt", || ctr.decrypt(&ct));
    if plain != data {
        return Err("MiMC-CTR round trip lost the plaintext".into());
    }

    let enc = EncryptionCircuit::new(len);
    let val = ValidationCircuit::new(len, RangePredicate { bits });
    let k_v = Fr::random(rng);
    let (kc, ko) = CommitmentScheme::commit_scalar(key, rng);
    let gates = [
        enc.synthesize_builder(&data, key, &ct, &c, &o).gate_count(),
        val.synthesize_builder(&data, &c, &o).gate_count(),
        KeyNegotiationCircuit
            .synthesize_builder(key, k_v, &kc, &ko)
            .gate_count(),
    ];
    let circuits = [
        t.run("circuits.synth.pi_e", || {
            enc.synthesize(&data, key, &ct, &c, &o)
        }),
        t.run("circuits.synth.pi_p", || val.synthesize(&data, &c, &o)),
        t.run("circuits.synth.pi_k", || {
            KeyNegotiationCircuit.synthesize(key, k_v, &kc, &ko)
        }),
    ];
    let names = [
        (
            "plonk.preprocess.pi_e",
            "plonk.prove.pi_e",
            "plonk.verify.pi_e",
        ),
        (
            "plonk.preprocess.pi_p",
            "plonk.prove.pi_p",
            "plonk.verify.pi_p",
        ),
        (
            "plonk.preprocess.pi_k",
            "plonk.prove.pi_k",
            "plonk.verify.pi_k",
        ),
    ];
    let mut items = Vec::new();
    for (circuit, (pre, prove, verify)) in circuits.iter().zip(names) {
        let (pk, vk) = t
            .run(pre, || Plonk::preprocess(srs, circuit))
            .map_err(|e| format!("{pre}: {e}"))?;
        let proof = t
            .run(prove, || Plonk::prove(&pk, circuit, rng))
            .map_err(|e| format!("{prove}: {e}"))?;
        let publics = circuit.public_values().to_vec();
        if !t.run(verify, || Plonk::verify(&vk, &publics, &proof)) {
            return Err(format!("{verify}: an honest proof did not verify"));
        }
        items.push((vk, publics, proof));
    }
    let refs: Vec<(&VerifyingKey, &[Fr], &Proof)> = items
        .iter()
        .map(|(vk, p, pr)| (vk, p.as_slice(), pr))
        .collect();
    if !t.run("plonk.batch_verify", || Plonk::batch_verify(&refs, rng)) {
        return Err("plonk.batch_verify rejected honest proofs".into());
    }
    Ok(Proofs {
        domain_e: items[0].0.n,
        domain_p: items[1].0.n,
        gates,
        items,
    })
}

/// FFT, coset FFT, MSM, KZG commit and batch inversion at the π_e and
/// π_p domain sizes; one pairing; a dependent Fr multiplication chain;
/// and a universal setup of `srs_degree`.
pub fn kernels(
    t: &Spans,
    srs: &Srs,
    domain_e: usize,
    domain_p: usize,
    srs_degree: usize,
    rng: &mut StdRng,
) {
    for (n, tag) in [(domain_e, "pi_e"), (domain_p, "pi_p")] {
        let Some(domain) = EvaluationDomain::new(n) else {
            continue;
        };
        let coeffs: Vec<Fr> = (0..domain.size()).map(|_| Fr::random(rng)).collect();
        let (fft, coset, msm) = match tag {
            "pi_e" => ("poly.fft.pi_e", "poly.coset_fft.pi_e", "curve.msm.pi_e"),
            _ => ("poly.fft.pi_p", "poly.coset_fft.pi_p", "curve.msm.pi_p"),
        };
        black_box(t.run(fft, || domain.fft(&coeffs)));
        black_box(t.run(coset, || domain.coset_fft(&coeffs)));
        let bases = &srs.powers_g1[..coeffs.len().min(srs.powers_g1.len())];
        black_box(t.run(msm, || zkdet_curve::msm(bases, &coeffs[..bases.len()])));
        if tag == "pi_e" {
            let poly = DensePolynomial::from_coefficients(coeffs[..bases.len()].to_vec());
            black_box(t.run("kzg.commit.pi_e", || srs.commit(&poly)));
            let mut inv = coeffs.clone();
            t.run("field.batch_inv", || Fr::batch_inverse(&mut inv));
            black_box(inv);
        }
    }
    let g1 = zkdet_curve::G1Affine::generator();
    let g2 = zkdet_curve::G2Affine::generator();
    black_box(t.run("curve.pairing", || zkdet_curve::pairing(&g1, &g2)));
    let x = Fr::random(rng);
    black_box(t.run("field.fr_mul", || {
        let mut acc = x;
        for _ in 0..FR_MUL_CHAIN {
            acc *= black_box(x);
        }
        acc
    }));
    black_box(t.run("kzg.setup", || Srs::universal_setup(srs_degree, rng)));
}

/// Publishes `bytes` user bytes to a fresh 8-node quorum store and
/// fetches them back; returns stored bytes per user byte.
pub fn storage(t: &Spans, bytes: usize, rng: &mut StdRng) -> Result<f64, String> {
    use rand::Rng;
    let net = StorageNetwork::with_quorum(8, QuorumConfig::for_cluster(8), FaultPlan::none());
    let payload: Vec<u8> = (0..bytes).map(|_| rng.gen::<u8>()).collect();
    let cid = t
        .run("storage.publish", || {
            net.publish(PinOwner(1), payload.clone())
        })
        .map_err(|e| format!("storage.publish: {e}"))?;
    let back = t
        .run("storage.fetch", || net.retrieve(&cid))
        .map_err(|e| format!("storage.fetch: {e}"))?;
    if back.as_ref() != payload.as_slice() {
        return Err("storage returned different bytes".into());
    }
    let report = net
        .durability_report(&cid)
        .ok_or("storage.publish: no durability report")?;
    let k = report.required_shares.max(1) as usize;
    let share = bytes.div_ceil(k);
    Ok((report.total_shares as usize * share) as f64 / bytes as f64)
}
