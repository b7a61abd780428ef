//! The four workloads: set-up, one checked operation per step, and the
//! layer probe at each workload's sizes.

use std::collections::VecDeque;
use std::time::Instant;

use rand::Rng;
use zkdet_chain::{Blockchain, Gas, TokenId, Wei};
use zkdet_circuits::exchange::RangePredicate;
use zkdet_core::throughput::{run_load, LoadConfig};
use zkdet_core::{
    DataOwner, Dataset, ExchangeOutcome, ExchangeWal, Marketplace, RecoveryOutcome,
    ShardPlanConfig, ShardedMarketplace, ZkdetError,
};
use zkdet_crypto::commitment::{Commitment, CommitmentScheme};
use zkdet_crypto::mimc::MimcCtr;
use zkdet_field::Fr;
use zkdet_kzg::Srs;
use zkdet_wal::CrashMode;

use crate::calib::Timed;
use crate::spec::Workload;
use crate::stats::{median, Outcome};
use crate::{probe, Bench, Ctx, SETUP_REPEATS};

/// Storage nodes of every single-instance marketplace.
const STORAGE_NODES: usize = 8;

/// Entries per published dataset in `publish` (π_e at n = 2^15).
const PUBLISH_LEN: usize = 32;

/// Dataset sizes `sale` cycles through, so each circuit shape recurs.
const SALE_LENS: [usize; 3] = [2, 4, 8];

/// The sale size whose steps the traced run spans and the probe
/// re-issues.
const PROBE_SALE_LEN: usize = 8;

/// Every `SALE_CRASH_EVERY`-th sale crashes at a journal boundary.
const SALE_CRASH_EVERY: usize = 4;

/// Range-predicate width of every sale's π_p.
const SALE_BITS: usize = 8;

/// Aggregate → partition → duplicate cycles of the audited lineage
/// (2 originals + 4 tokens per cycle).
const AUDIT_CYCLES: usize = 3;

/// Sets the workload up. Returns it with `setup_s`: the wall seconds of
/// the median of [`SETUP_REPEATS`] bootstraps plus the workload's own
/// set-up.
pub fn setup(workload: Workload, cx: &mut Ctx) -> Result<(Box<dyn Bench>, f64), String> {
    Ok(match workload {
        Workload::Publish => {
            let (w, s) = Publish::setup(cx)?;
            (Box::new(w), s)
        }
        Workload::Sale => {
            let (w, s) = Sale::setup(cx)?;
            (Box::new(w), s)
        }
        Workload::Market => {
            let (w, s) = Market::setup(cx)?;
            (Box::new(w), s)
        }
        Workload::Audit => {
            let (w, s) = Audit::setup(cx)?;
            (Box::new(w), s)
        }
    })
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `bootstrap` [`SETUP_REPEATS`] times and keeps the last
/// deployment; returns it with the median bootstrap wall time.
fn repeat_bootstrap<T>(
    cx: &mut Ctx,
    mut bootstrap: impl FnMut(&mut Ctx) -> Result<T, ZkdetError>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous instance before timing the next bootstrap.
        drop(kept.take());
        let watch = cx.watch();
        let built = bootstrap(cx).map_err(|e| format!("bootstrap: {e}"))?;
        let secs = cx.stop(watch).wall_s;
        kept = Some(built);
        cx.sample("bootstrap_s", "s", secs);
        times.push(secs);
    }
    let kept = kept.ok_or("no bootstrap ran")?;
    Ok((kept, median(&times).unwrap_or(0.0)))
}

/// [`repeat_bootstrap`] of a single marketplace for circuits of up to
/// `max_constraints` gates.
fn bootstrap(cx: &mut Ctx, max_constraints: usize) -> Result<(Marketplace, f64), String> {
    repeat_bootstrap(cx, |cx| {
        Marketplace::bootstrap(max_constraints, STORAGE_NODES, &mut cx.rng)
    })
}

/// `len` random entries of `bits` bits (1..=64).
fn random_dataset(cx: &mut Ctx, len: usize, bits: u32) -> Dataset {
    Dataset::from_entries(
        (0..len)
            .map(|_| Fr::from(cx.rng.gen::<u64>() >> (64 - bits)))
            .collect(),
    )
}

/// Index of the next transaction the chain will execute.
fn next_tx(chain: &Blockchain) -> u64 {
    chain
        .blocks()
        .iter()
        .flat_map(|b| &b.receipts)
        .chain(chain.pending_receipts())
        .map(|r| r.tx_index + 1)
        .max()
        .unwrap_or(0)
}

/// Gas of the transactions from index `from` on whose action starts with
/// `prefix`.
fn gas_since(chain: &Blockchain, from: u64, prefix: &str) -> Gas {
    chain
        .blocks()
        .iter()
        .flat_map(|b| &b.receipts)
        .chain(chain.pending_receipts())
        .filter(|r| r.tx_index >= from && r.action.starts_with(prefix))
        .map(|r| r.gas_used)
        .sum()
}

/// Checks a freshly published token against its plaintext: ownership,
/// the on-chain commitment, and that the stored ciphertext decrypts to
/// the data.
fn check_published(
    m: &mut Marketplace,
    owner: &DataOwner,
    token: TokenId,
    data: &Dataset,
) -> Result<(), String> {
    let secret = owner
        .secret(token)
        .ok_or("seller lost the dataset secret")?;
    let nft = m.chain.nft(&m.nft_addr).map_err(|e| e.to_string())?;
    if nft.owner_of(token).map_err(|e| e.to_string())? != owner.address {
        return Err("token not owned by its publisher".into());
    }
    let commitment = nft.token_meta(token).map_err(|e| e.to_string())?.commitment;
    if CommitmentScheme::commit_with(data.entries(), &secret.opening) != Commitment(commitment) {
        return Err("on-chain commitment does not open to the data".into());
    }
    let key = secret.key;
    let (ct, bundle) = m.fetch_artefacts(token).map_err(|e| e.to_string())?;
    if MimcCtr::new(key, ct.nonce).decrypt(&ct) != data.entries() || bundle.len != data.len() {
        return Err("stored ciphertext does not decrypt to the data".into());
    }
    Ok(())
}

/// Runs the shared relation and kernel probe at `len` entries and fills
/// the size, gate, MiMC and storage metrics.
fn common_probe(cx: &mut Ctx, srs: &Srs, len: usize, bits: usize) -> Result<probe::Proofs, String> {
    let proofs = probe::relations(&cx.spans, srs, len, bits, &mut cx.rng)?;
    probe::kernels(
        &cx.spans,
        srs,
        proofs.domain_e,
        proofs.domain_p,
        srs.max_degree(),
        &mut cx.rng,
    );
    // Ciphertext: nonce + one 32-byte element per entry.
    let ratio = probe::storage(&cx.spans, 32 * (len + 1), &mut cx.rng)?;
    let mimc_ms = cx
        .spans
        .durations_ms("crypto.mimc_encrypt")
        .last()
        .copied()
        .unwrap_or(0.0);
    let layer = &mut cx.layer;
    layer.insert("poly.domain_n.pi_e", proofs.domain_e as f64);
    layer.insert("poly.domain_n.pi_p", proofs.domain_p as f64);
    layer.insert("circuits.gates.pi_e", proofs.gates[0] as f64);
    layer.insert("circuits.gates.pi_p", proofs.gates[1] as f64);
    layer.insert("circuits.gates.pi_k", proofs.gates[2] as f64);
    layer.insert("crypto.mimc_us_per_block", mimc_ms * 1e3 / len as f64);
    layer.insert("storage.bytes_per_user_byte", ratio);
    Ok(proofs)
}

// ---------------------------------------------------------------------- //
//  publish                                                                //
// ---------------------------------------------------------------------- //

/// A seller publishing 32-entry datasets; the cold-shape publish is part
/// of set-up (it fills the π_e key cache), the loop times warm ones.
struct Publish {
    m: Marketplace,
    seller: DataOwner,
    /// Gas of the last publish's mint.
    mint_gas: Gas,
}

impl Publish {
    fn setup(cx: &mut Ctx) -> Result<(Publish, f64), String> {
        let (mut m, boot) = bootstrap(cx, 1 << 15)?;
        let seller = m.register();
        let mut w = Publish {
            m,
            seller,
            mint_gas: 0,
        };
        let first = w.publish_once(cx).ok_or("first publish failed")?;
        cx.sample("first_publish_s", "s", first.wall_s);
        cx.ops.clear();
        Ok((w, boot + first.wall_s))
    }

    /// One checked publish; returns its time, or `None` on failure.
    fn publish_once(&mut self, cx: &mut Ctx) -> Option<Timed> {
        let data = random_dataset(cx, PUBLISH_LEN, 64);
        let tx0 = next_tx(&self.m.chain);
        let watch = cx.watch();
        let (m, seller, rng) = (&mut self.m, &mut self.seller, &mut cx.rng);
        let res = cx.spans.run("core.publish", || {
            m.publish_original(seller, data.clone(), rng)
        });
        let dt = cx.stop(watch);
        let token = match res {
            Ok(token) => token,
            Err(e) => {
                cx.fail(Outcome::Error, format!("publish_original: {e}"));
                return None;
            }
        };
        if let Err(e) = check_published(&mut self.m, &self.seller, token, &data) {
            cx.fail(Outcome::WrongOutput, format!("publish {token}: {e}"));
            return None;
        }
        cx.tally.record(Outcome::Ok, String::new);
        self.mint_gas = gas_since(&self.m.chain, tx0, "mint");
        cx.ops.push((0, dt.wall_s));
        Some(dt)
    }
}

impl Bench for Publish {
    fn step(&mut self, cx: &mut Ctx) -> f64 {
        let t = Instant::now();
        match self.publish_once(cx) {
            Some(dt) => {
                cx.sample("publish_s", "s", dt.wall_s);
                dt.wall_s
            }
            None => secs(t),
        }
    }

    fn probe(&mut self, cx: &mut Ctx) -> Result<Vec<(&'static str, Vec<&'static str>)>, String> {
        common_probe(cx, &self.m.srs, PUBLISH_LEN, SALE_BITS)?;
        cx.layer.insert("chain.gas.mint", self.mint_gas as f64);
        Ok(vec![(
            "core.publish",
            vec![
                "crypto.mimc_encrypt",
                "crypto.poseidon_commit",
                "circuits.synth.pi_e",
                "plonk.prove.pi_e",
                "storage.publish",
            ],
        )])
    }
}

// ---------------------------------------------------------------------- //
//  sale                                                                   //
// ---------------------------------------------------------------------- //

/// One seller, one buyer, a fresh journal per exchange; every
/// [`SALE_CRASH_EVERY`]-th sale crashes at a seed-chosen journal boundary
/// and is finished by `Marketplace::recover` from the durable bytes.
struct Sale {
    m: Marketplace,
    seller: DataOwner,
    buyer: DataOwner,
    ready: VecDeque<(TokenId, Dataset)>,
    sales: usize,
    /// Journal records and bytes of one uncrashed sale, once known.
    journal: Option<(u64, Vec<u8>)>,
    /// Gas of list, lock and settle of the last uncrashed sale.
    gas: [Gas; 3],
}

/// List price, floor and per-block decay of every listing.
const PRICE: (Wei, Wei, Wei) = (100, 50, 1);

/// SplitMix64 finaliser: derives the crash schedule from the seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One key-secure exchange through the journaled step wrappers, from
/// listing to the buyer's verified plaintext.
fn exchange(
    m: &mut Marketplace,
    wal: &mut ExchangeWal,
    seller: &DataOwner,
    buyer: &mut DataOwner,
    token: TokenId,
    cx: &mut Ctx,
) -> Result<zkdet_core::ExchangeReport, ZkdetError> {
    let (t, rng) = (&cx.spans, &mut cx.rng);
    let (start, floor, decay) = PRICE;
    let listing = t.run("core.list", || {
        m.journaled_list_for_sale(wal, seller, token, start, floor, decay, "u8".into(), rng)
    })?;
    let pkg = t.run("core.validation_package", || {
        m.seller_validation_package(seller, token, RangePredicate { bits: SALE_BITS }, rng)
    })?;
    let session = t.run("core.validate_lock", || {
        m.journaled_validate_and_lock(wal, buyer, listing.listing, &pkg, rng)
    })?;
    t.run("core.settle", || {
        m.journaled_seller_settle(wal, seller, &listing, session.k_v_message(), rng)
    })?;
    t.run("core.buyer_recover", || {
        m.journaled_drive_to_completion(wal, buyer, &session)
    })
}

impl Sale {
    fn setup(cx: &mut Ctx) -> Result<(Sale, f64), String> {
        let (mut m, boot) = bootstrap(cx, 1 << 14)?;
        let seller = m.register();
        let buyer = m.register();
        let mut w = Sale {
            m,
            seller,
            buyer,
            ready: VecDeque::new(),
            sales: 0,
            journal: None,
            gas: [0; 3],
        };
        let mut own = 0.0;
        for len in SALE_LENS {
            let watch = cx.watch();
            let item = w.publish(cx, len)?;
            own += cx.stop(watch).wall_s;
            w.ready.push_back(item);
        }
        Ok((w, boot + own))
    }

    fn publish(&mut self, cx: &mut Ctx, len: usize) -> Result<(TokenId, Dataset), String> {
        let data = random_dataset(cx, len, SALE_BITS as u32);
        let tx0 = next_tx(&self.m.chain);
        let traced = cx.spans.on();
        cx.spans.set_on(traced && len == PROBE_SALE_LEN);
        let (m, seller, rng) = (&mut self.m, &mut self.seller, &mut cx.rng);
        let res = cx.spans.run("core.publish", || {
            m.publish_original(seller, data.clone(), rng)
        });
        cx.spans.set_on(traced);
        let token = res.map_err(|e| format!("publish for sale: {e}"))?;
        // Mint gas grows with the dataset; keep the probed size's, so the
        // count repeats exactly across runs.
        if len == PROBE_SALE_LEN {
            cx.layer.insert(
                "chain.gas.mint",
                gas_since(&self.m.chain, tx0, "mint") as f64,
            );
        }
        Ok((token, data))
    }

    /// Checks a finished sale: escrow empty, the price moved buyer →
    /// seller exactly once, the buyer owns the token and holds `data`.
    fn check_settled(
        &self,
        token: TokenId,
        data: &Dataset,
        before: (Wei, Wei),
    ) -> Result<(), String> {
        let m = &self.m;
        let escrow = m.chain.state.balance(&m.auction_addr);
        if escrow != 0 {
            return Err(format!("{escrow} left in escrow"));
        }
        let paid = m
            .chain
            .state
            .balance(&self.seller.address)
            .wrapping_sub(before.0);
        let spent = before
            .1
            .wrapping_sub(m.chain.state.balance(&self.buyer.address));
        if paid != spent || !(PRICE.1..=PRICE.0).contains(&paid) {
            return Err(format!(
                "seller received {paid}, buyer paid {spent}: not one payment"
            ));
        }
        let owner = m
            .chain
            .nft(&m.nft_addr)
            .and_then(|n| n.owner_of(token))
            .map_err(|e| e.to_string())?;
        if owner != self.buyer.address {
            return Err("token not transferred to the buyer".into());
        }
        match self.buyer.secret(token) {
            Some(s) if s.data == *data => Ok(()),
            _ => Err("buyer does not hold the published plaintext".into()),
        }
    }

    fn balances(&self) -> (Wei, Wei) {
        let state = &self.m.chain.state;
        (
            state.balance(&self.seller.address),
            state.balance(&self.buyer.address),
        )
    }

    /// An uncrashed sale; returns its wall time.
    fn clean_sale(&mut self, cx: &mut Ctx, token: TokenId, data: &Dataset, len: usize) -> f64 {
        let mut wal = ExchangeWal::new();
        let tx0 = next_tx(&self.m.chain);
        let before = self.balances();
        // Per-step spans are kept for one size only: the one the probe
        // re-issues, so per-step figures and coverage compare like with
        // like.
        let traced = cx.spans.on();
        cx.spans.set_on(traced && len == PROBE_SALE_LEN);
        let watch = cx.watch();
        let res = exchange(
            &mut self.m,
            &mut wal,
            &self.seller,
            &mut self.buyer,
            token,
            cx,
        );
        let dt = cx.stop(watch);
        cx.spans.set_on(traced);
        let report = match res {
            Ok(r) => r,
            Err(e) => {
                cx.fail(Outcome::Error, format!("sale of {token}: {e}"));
                return dt.wall_s;
            }
        };
        let outcome = match report.outcome {
            ExchangeOutcome::Settled => Outcome::Ok,
            ExchangeOutcome::Aborted => Outcome::Aborted,
            ExchangeOutcome::Refunded => Outcome::Refunded { planned: false },
        };
        let checked = if report.data.as_ref() != Some(data) {
            Err("decrypted plaintext differs from the published dataset".to_string())
        } else {
            self.check_settled(token, data, before)
        };
        match (outcome, checked) {
            (Outcome::Ok, Ok(())) => cx.tally.record(Outcome::Ok, String::new),
            (Outcome::Ok, Err(e)) => cx.fail(Outcome::WrongOutput, format!("sale of {token}: {e}")),
            (o, _) => cx.fail(o, format!("sale of {token}: {:?}", report.failure)),
        }
        let chain = &self.m.chain;
        self.gas = [
            gas_since(chain, tx0, "create listing"),
            gas_since(chain, tx0, "lock listing"),
            gas_since(chain, tx0, "key-secure settle"),
        ];
        cx.sample("gas_per_sale", "gas", self.gas.iter().sum::<Gas>() as f64);
        cx.sample("sale_s", "s", dt.wall_s);
        cx.sample(&format!("sale_s.len{len}"), "s", dt.wall_s);
        cx.ops.push((len, dt.wall_s));
        self.journal = Some((wal.record_count(), wal.durable_bytes().to_vec()));
        dt.wall_s
    }

    /// A sale crashed at journal append `crash_at`, reopened from its
    /// durable bytes and finished by `recover`; returns its wall time.
    fn crashed_sale(
        &mut self,
        cx: &mut Ctx,
        token: TokenId,
        data: &Dataset,
        crash_at: u64,
        mode: CrashMode,
    ) -> f64 {
        let mut wal = ExchangeWal::new();
        wal.set_crash_after(crash_at, mode);
        let before = self.balances();
        let t = Instant::now();
        // The interrupted steps are not spanned: they would blur the
        // per-step figures of uncrashed sales.
        let traced = cx.spans.on();
        cx.spans.set_on(false);
        let res = exchange(
            &mut self.m,
            &mut wal,
            &self.seller,
            &mut self.buyer,
            token,
            cx,
        );
        cx.spans.set_on(traced);
        let flow_s = secs(t);
        if !matches!(res, Err(ZkdetError::Journal(zkdet_wal::WalError::Crashed))) {
            cx.fail(
                Outcome::WrongOutput,
                format!("sale of {token}: armed crash at {crash_at} did not fire"),
            );
            return flow_s;
        }
        let t = Instant::now();
        let (m, seller, buyer, rng) = (&mut self.m, &self.seller, &mut self.buyer, &mut cx.rng);
        let rec = cx.spans.run("core.restart_recover", || {
            let mut wal = ExchangeWal::open(wal.durable_bytes().to_vec())?;
            m.recover(&mut wal, Some(seller), buyer, None, rng)
        });
        let recover_s = secs(t);
        let settled = match rec.as_ref().map(|r| r.exchanges.as_slice()) {
            Ok([ex]) => match &ex.outcome {
                RecoveryOutcome::Completed(rep) => rep.outcome == ExchangeOutcome::Settled,
                RecoveryOutcome::AlreadyTerminal(o) => *o == ExchangeOutcome::Settled,
                RecoveryOutcome::Listed => false,
            },
            _ => false,
        };
        let checked = if settled {
            self.check_settled(token, data, before)
        } else {
            Err(format!(
                "recovery did not settle: {:?}",
                rec.map(|r| r.exchanges)
            ))
        };
        match checked {
            Ok(()) => cx.tally.record(Outcome::Ok, String::new),
            Err(e) => cx.fail(
                Outcome::WrongOutput,
                format!("sale of {token} crashed at {crash_at} ({mode:?}): {e}"),
            ),
        }
        cx.sample("recover_s", "s", recover_s);
        flow_s + recover_s
    }
}

impl Bench for Sale {
    /// Every size and a crashed sale.
    fn round(&self) -> usize {
        SALE_CRASH_EVERY.max(SALE_LENS.len())
    }

    /// A window holds a dozen sales of 1-3 s each.
    fn scaled_by_window(&self) -> bool {
        true
    }

    fn step(&mut self, cx: &mut Ctx) -> f64 {
        let i = self.sales;
        self.sales += 1;
        let len = SALE_LENS[i % SALE_LENS.len()];
        let t = Instant::now();
        // Tokens beyond the first cycle are published here; that time is
        // set-up for the sale and not part of the measured window.
        let (token, data) = match self.ready.pop_front() {
            Some(item) => item,
            None => match self.publish(cx, len) {
                Ok(item) => item,
                Err(e) => {
                    cx.fail(Outcome::Error, e);
                    return secs(t);
                }
            },
        };
        match &self.journal {
            Some((records, _)) if (i + 1).is_multiple_of(SALE_CRASH_EVERY) => {
                // Boundaries from the first one after the buyer's payment
                // intent is durable, so every crash leaves a sale that
                // recovery must drive to settlement.
                let r = mix(cx.seed ^ (i as u64).wrapping_mul(0x51_7cc1));
                let crash_at = 4 + r % records.saturating_sub(3).max(1);
                let mode = if r >> 63 == 1 {
                    CrashMode::Torn
                } else {
                    CrashMode::Clean
                };
                self.crashed_sale(cx, token, &data, crash_at, mode)
            }
            _ => self.clean_sale(cx, token, &data, len),
        }
    }

    fn probe(&mut self, cx: &mut Ctx) -> Result<Vec<(&'static str, Vec<&'static str>)>, String> {
        let proofs = common_probe(cx, &self.m.srs, PROBE_SALE_LEN, SALE_BITS)?;
        // The settle transaction's on-chain π_k check, and a block.
        let (_, publics, proof) = &proofs.items[2];
        let addr = self.m.keyneg_verifier_addr;
        let m = &mut self.m;
        let ok = cx
            .spans
            .run("chain.verify_tx", || {
                m.chain.verify_on_chain(addr, publics, proof)
            })
            .map_err(|e| format!("verify_on_chain: {e}"))?;
        if !ok.0 {
            return Err("the chain rejected an honest π_k".into());
        }
        cx.spans.run("chain.mine_block", || m.chain.mine_block());

        let (records, bytes) = self.journal.clone().ok_or("no uncrashed sale ran")?;
        let journal = ExchangeWal::open(bytes.clone())
            .and_then(|w| w.records())
            .map_err(|e| format!("reopen journal: {e}"))?;
        let mut copy = ExchangeWal::new();
        cx.spans
            .run("wal.append", || {
                journal.iter().try_for_each(|r| copy.append(r).map(|_| ()))
            })
            .map_err(|e| format!("wal append: {e}"))?;
        let replayed = cx
            .spans
            .run("wal.replay", || {
                ExchangeWal::open(bytes.clone()).and_then(|w| w.records())
            })
            .map_err(|e| format!("wal replay: {e}"))?;
        if replayed.len() as u64 != records {
            return Err("journal replay lost records".into());
        }
        let per = |name: &str| {
            cx.spans.durations_ms(name).last().copied().unwrap_or(0.0) * 1e3 / records.max(1) as f64
        };
        let (append_us, replay_us) = (per("wal.append"), per("wal.replay"));
        let layer = &mut cx.layer;
        layer.insert("wal.records_per_sale", records as f64);
        layer.insert("wal.bytes_per_sale", bytes.len() as f64);
        layer.insert("wal.append_us", append_us);
        layer.insert("wal.replay_us_per_record", replay_us);
        layer.insert("chain.gas.list", self.gas[0] as f64);
        layer.insert("chain.gas.lock", self.gas[1] as f64);
        layer.insert("chain.gas.settle", self.gas[2] as f64);
        layer.insert("chain.gas_per_sale", self.gas.iter().sum::<Gas>() as f64);
        Ok(vec![
            (
                "core.publish",
                vec![
                    "crypto.mimc_encrypt",
                    "crypto.poseidon_commit",
                    "circuits.synth.pi_e",
                    "plonk.prove.pi_e",
                    "storage.publish",
                ],
            ),
            (
                "core.validation_package",
                vec![
                    "circuits.synth.pi_p",
                    "plonk.preprocess.pi_p",
                    "plonk.prove.pi_p",
                ],
            ),
            ("core.validate_lock", vec!["plonk.verify.pi_p"]),
            (
                "core.settle",
                vec![
                    "circuits.synth.pi_k",
                    "plonk.prove.pi_k",
                    "chain.verify_tx",
                    "chain.mine_block",
                ],
            ),
            (
                "core.buyer_recover",
                vec!["storage.fetch", "crypto.mimc_decrypt"],
            ),
        ])
    }
}

// ---------------------------------------------------------------------- //
//  market                                                                 //
// ---------------------------------------------------------------------- //

/// `run_load` at the `LoadConfig::small` shape, chaos on, called until
/// the window is used (one call takes 9-16 s on two cores).
struct Market {
    runs: u64,
    /// Wall seconds per terminal exchange of the last call.
    last_exchange_s: f64,
}

impl Market {
    fn config(cx: &Ctx, run: u64) -> LoadConfig {
        LoadConfig::small(mix(cx.seed).wrapping_add(run))
    }

    fn setup(cx: &mut Ctx) -> Result<(Market, f64), String> {
        // `run_load` bootstraps its own deployment inside the timed call;
        // set-up times that same bootstrap on its own, and drops it.
        let shape = Market::config(cx, 0);
        let (sharded, boot) = repeat_bootstrap(cx, |cx| {
            ShardedMarketplace::bootstrap_with(
                ShardPlanConfig {
                    shards: shape.shards,
                    max_constraints: shape.max_constraints,
                    storage_nodes: shape.storage_nodes,
                    fault_plans: Vec::new(),
                },
                &mut cx.rng,
            )
        })?;
        drop(sharded);
        let market = Market {
            runs: 0,
            last_exchange_s: 0.0,
        };
        Ok((market, boot))
    }
}

impl Bench for Market {
    fn step(&mut self, cx: &mut Ctx) -> f64 {
        let config = Market::config(cx, self.runs);
        self.runs += 1;
        let watch = cx.watch();
        let res = cx.spans.run("core.run_load", || run_load(&config));
        let dt = cx.stop(watch).wall_s;
        let out = match res {
            Ok(out) => out,
            Err(e) => {
                cx.fail(Outcome::Error, format!("run_load: {e}"));
                return dt;
            }
        };
        for f in &out.invariant_failures {
            cx.fail(Outcome::WrongOutput, format!("run_load invariant: {f}"));
        }
        let mut planned = config.withheld;
        for r in &out.results {
            let outcome = match r.outcome {
                ExchangeOutcome::Settled => Outcome::Ok,
                ExchangeOutcome::Aborted => Outcome::Aborted,
                ExchangeOutcome::Refunded => {
                    let p = planned > 0;
                    planned = planned.saturating_sub(1);
                    Outcome::Refunded { planned: p }
                }
            };
            cx.tally
                .record(outcome, || format!("exchange of {}", r.token));
        }
        for _ in out.results.len()..config.exchanges {
            cx.fail(
                Outcome::Error,
                "exchange never reached a terminal state".into(),
            );
        }
        for i in 0..config.swaps as u64 {
            let outcome = if i < out.swaps_completed {
                Outcome::Ok
            } else {
                Outcome::Error
            };
            cx.tally
                .record(outcome, || "FairSwap session did not complete".into());
        }
        let terminal = out.results.len().max(1) as f64;
        cx.sample("run_load_s", "s", dt);
        cx.sample("ex_per_wall_s", "1/s", terminal / dt);
        cx.ops.push((0, dt / terminal));
        self.last_exchange_s = dt / terminal;

        let s = &out.summary;
        let ticks = s.ticks.max(1) as f64;
        let layer = &mut cx.layer;
        layer.insert("exec.makespan_ticks", s.ticks as f64);
        layer.insert("exec.busy_ticks", s.busy_ticks as f64);
        layer.insert("exec.jobs_run", s.jobs_run as f64);
        layer.insert("exec.job_wall_ms", s.job_wall_micros as f64 / 1e3);
        layer.insert(
            "exec.worker_busy_ratio",
            s.busy_ticks as f64 / (ticks * s.sim_workers.max(1) as f64),
        );
        layer.insert(
            "exec.proofs_per_verify_batch",
            out.batched_proofs as f64 / out.verify_batches.max(1) as f64,
        );
        layer.insert(
            "exec.ex_per_sim_s",
            config.exchanges as f64 * 1000.0 / ticks,
        );
        dt
    }

    fn probe(&mut self, cx: &mut Ctx) -> Result<Vec<(&'static str, Vec<&'static str>)>, String> {
        // An SRS of the size run_load's deployment bootstraps, built
        // after the measured window.
        let shape = Market::config(cx, 0);
        let srs = Srs::universal_setup(shape.max_constraints + 8, &mut cx.rng);
        common_probe(cx, &srs, shape.dataset_len, shape.bits)?;
        // One exchange's proving, verification and storage calls against
        // run_load's wall time per exchange.
        let calls = [
            "plonk.prove.pi_e",
            "plonk.preprocess.pi_p",
            "plonk.prove.pi_p",
            "plonk.prove.pi_k",
            "plonk.batch_verify",
            "storage.publish",
            "storage.fetch",
        ];
        let ms: f64 = calls
            .iter()
            .filter_map(|c| cx.spans.durations_ms(c).last().copied())
            .sum();
        if self.last_exchange_s > 0.0 {
            cx.layer
                .insert("trace.coverage", ms / 1e3 / self.last_exchange_s);
        }
        Ok(Vec::new())
    }
}

// ---------------------------------------------------------------------- //
//  audit                                                                  //
// ---------------------------------------------------------------------- //

/// Cold and warm batched audits of the tip of a lineage built by
/// aggregate → partition → duplicate cycles.
struct Audit {
    m: Marketplace,
    tip: TokenId,
    /// The tip and all its ancestors, sorted.
    lineage: Vec<TokenId>,
    /// Proofs the last cold audit verified.
    proofs: u64,
}

impl Audit {
    fn setup(cx: &mut Ctx) -> Result<(Audit, f64), String> {
        let (mut m, boot) = bootstrap(cx, 1 << 13)?;
        let mut owner = m.register();
        let err = |e: ZkdetError| format!("lineage set-up: {e}");
        let one = |cx: &mut Ctx| random_dataset(cx, 1, 32);
        let (a, b) = (one(cx), one(cx));
        let watch = cx.watch();
        let mut x = m
            .publish_original(&mut owner, a, &mut cx.rng)
            .map_err(err)?;
        let mut y = m
            .publish_original(&mut owner, b, &mut cx.rng)
            .map_err(err)?;
        let mut own = cx.stop(watch).wall_s;
        let mut tip = x;
        for _ in 0..AUDIT_CYCLES {
            let watch = cx.watch();
            let agg = m.aggregate(&mut owner, &[x, y], &mut cx.rng).map_err(err)?;
            let parts = m
                .partition(&mut owner, agg, &[1, 1], &mut cx.rng)
                .map_err(err)?;
            let dup = m
                .duplicate(&mut owner, parts[0], &mut cx.rng)
                .map_err(err)?;
            own += cx.stop(watch).wall_s;
            (x, y, tip) = (dup, parts[1], dup);
        }
        let mut lineage = m
            .chain
            .nft(&m.nft_addr)
            .and_then(|n| n.provenance(tip))
            .map_err(|e| format!("lineage: {e}"))?;
        lineage.push(tip);
        lineage.sort_by_key(|t| t.0);
        lineage.dedup();
        // A first audit warms everything but the audit cache.
        let watch = cx.watch();
        m.audit_token_batched(tip, &mut cx.rng).map_err(err)?;
        own += cx.stop(watch).wall_s;
        Ok((
            Audit {
                m,
                tip,
                lineage,
                proofs: 0,
            },
            boot + own,
        ))
    }

    fn check(
        &self,
        report: Result<zkdet_core::ProvenanceReport, ZkdetError>,
    ) -> Result<(), String> {
        let mut seen = report.map_err(|e| e.to_string())?.verified_tokens;
        seen.sort_by_key(|t| t.0);
        seen.dedup();
        if seen != self.lineage {
            return Err(format!(
                "audit covered {} of {} lineage tokens",
                seen.len(),
                self.lineage.len()
            ));
        }
        Ok(())
    }
}

impl Bench for Audit {
    fn step(&mut self, cx: &mut Ctx) -> f64 {
        let tip = self.tip;
        self.m.clear_audit_cache();
        let cache = |m: &Marketplace| (m.audit_cache().hits(), m.audit_cache().misses());
        let (_, misses0) = cache(&self.m);
        let watch = cx.watch();
        let (m, rng) = (&mut self.m, &mut cx.rng);
        let cold = cx
            .spans
            .run("core.audit_cold", || m.audit_token_batched(tip, rng));
        let cold_t = cx.stop(watch);
        let (hits1, misses1) = cache(&self.m);
        let watch = cx.watch();
        let (m, rng) = (&mut self.m, &mut cx.rng);
        let warm = cx
            .spans
            .run("core.audit_warm", || m.audit_token_batched(tip, rng));
        let warm_s = cx.stop(watch).wall_s;
        let cold_s = cold_t.wall_s;
        let (hits2, misses2) = cache(&self.m);

        for (label, report) in [("cold", cold), ("warm", warm)] {
            match self.check(report) {
                Ok(()) => cx.tally.record(Outcome::Ok, String::new),
                Err(e) => cx.fail(Outcome::WrongOutput, format!("{label} audit of {tip}: {e}")),
            }
        }
        if misses2 != misses1 {
            cx.fail(
                Outcome::WrongOutput,
                "warm audit missed the audit cache".into(),
            );
        }
        self.proofs = misses1 - misses0;
        let warm_checks = (hits2 - hits1) + (misses2 - misses1);
        cx.sample("audit_cold_s", "s", cold_s);
        cx.sample("audit_warm_s", "s", warm_s);
        // A cold audit is a ~0.1 s call on this thread, so the kernel
        // read on this thread right around it measures the core it ran
        // on: audit's `op_s` is scaled to the nominal speed (see
        // `calib`).
        cx.ops.push((0, cold_t.scaled_s));
        let layer = &mut cx.layer;
        layer.insert("provenance.proofs_per_audit", self.proofs as f64);
        layer.insert(
            "provenance.cache_hit_rate",
            (hits2 - hits1) as f64 / warm_checks.max(1) as f64,
        );
        layer.insert(
            "provenance.verify_ms_per_proof",
            cold_s * 1e3 / self.proofs.max(1) as f64,
        );
        cold_s + warm_s
    }

    fn probe(&mut self, cx: &mut Ctx) -> Result<Vec<(&'static str, Vec<&'static str>)>, String> {
        let proofs = common_probe(cx, &self.m.srs, 1, SALE_BITS)?;
        // The cold audit fetches every lineage artefact and folds all its
        // proofs into one pairing check: re-issue both at its sizes.
        let mut metas = Vec::new();
        for token in &self.lineage {
            let meta = self
                .m
                .chain
                .nft(&self.m.nft_addr)
                .and_then(|n| n.token_meta(*token))
                .map_err(|e| format!("lineage meta: {e}"))?;
            metas.push(meta.clone());
        }
        let storage = &self.m.storage;
        cx.spans
            .run("storage.fetch_lineage", || {
                metas.iter().try_for_each(|meta| {
                    storage.retrieve(&meta.cid)?;
                    meta.proof_cid
                        .as_ref()
                        .map_or(Ok(()), |c| storage.retrieve(c).map(|_| ()))
                })
            })
            .map_err(|e| format!("lineage fetch: {e}"))?;
        let (vk, publics, proof) = &proofs.items[0];
        let batch: Vec<(&zkdet_plonk::VerifyingKey, &[Fr], &zkdet_plonk::Proof)> =
            (0..self.proofs.max(1))
                .map(|_| (vk, publics.as_slice(), proof))
                .collect();
        let rng = &mut cx.rng;
        if !cx.spans.run("plonk.batch_verify.lineage", || {
            zkdet_plonk::Plonk::batch_verify(&batch, rng)
        }) {
            return Err("batch verification rejected honest proofs".into());
        }
        Ok(vec![(
            "core.audit_cold",
            vec!["storage.fetch_lineage", "plonk.batch_verify.lineage"],
        )])
    }
}
