//! Reproduction of the overwrite fault: `DynamicDict` never reclaims a
//! deleted key's fields, so deleting and re-inserting one key fills that
//! key's candidate fields on every level with its own dead copies until
//! the insert is refused with `LevelsExhausted`.
//!
//! The reproduction cycles a fixed set of keys on a fixed dictionary, so
//! it fails the same operations on every run whatever the seed. A fix of
//! the fault shows here as zero failures.

use crate::model::satellite;
use crate::report::Report;
use pdm::{DiskArray, PdmConfig};
use pdm_dict::layout::DiskAllocator;
use pdm_dict::{Dict, DictHandle, DictParams, DynamicDict, ErrorKind};

/// Keys cycled by the reproduction.
const KEYS: [u64; 8] = [
    11, 4_099, 65_537, 131_101, 262_147, 524_309, 786_433, 1_048_573,
];
/// Delete-and-insert cycles tried per key before giving up on it.
const MAX_CYCLES: u32 = 64;
const SAT_WORDS: usize = 2;

/// One round of the reproduction, with operations counted in `report`
/// under class `overwrite`. Returns, per key, the cycle whose insert was
/// first refused (`None` if none was within [`MAX_CYCLES`]).
pub fn round(report: &mut Report) -> Vec<(u64, Option<u32>)> {
    let params = DictParams::new(4_096, 1 << 21, SAT_WORDS)
        .with_degree(20)
        .with_epsilon(0.5)
        .with_seed(0x0BAD_F1E1D)
        .with_journal(4);
    let mut disks = DiskArray::new(PdmConfig::new(40, 64), 0);
    let mut alloc = DiskAllocator::new(40);
    let dict = DynamicDict::create(&mut disks, &mut alloc, 0, params).expect("valid parameters");
    let mut dict = DictHandle::new(dict, disks);
    for &key in &KEYS {
        dict.insert(key, &satellite(key, SAT_WORDS))
            .expect("first insert into an almost empty dictionary");
    }
    KEYS.iter()
        .map(|&key| {
            let sat = satellite(key, SAT_WORDS);
            for cycle in 1..=MAX_CYCLES {
                report.attempt("overwrite");
                let deleted = dict.delete(key);
                report.check(matches!(deleted, Ok((true, _))), || {
                    format!("overwrite repro: delete({key}) in cycle {cycle} gave {deleted:?}")
                });
                report.attempt("overwrite");
                if let Err(e) = dict.insert(key, &sat) {
                    report.fail("overwrite", &format!("{:?}", e.kind()));
                    report.check(e.kind() == ErrorKind::LevelsExhausted, || {
                        format!("overwrite repro: insert({key}) refused with {e}")
                    });
                    // The model records the key as absent after a refused
                    // insert; the dictionary must agree.
                    let got = dict.lookup(key).satellite;
                    report.check(got.is_none(), || {
                        format!("overwrite repro: refused key {key} still reads {got:?}")
                    });
                    return (key, Some(cycle));
                }
                let got = dict.lookup(key).satellite;
                report.check(got.as_deref() == Some(&sat[..]), || {
                    format!("overwrite repro: lookup({key}) after cycle {cycle} = {got:?}")
                });
            }
            (key, None)
        })
        .collect()
}
