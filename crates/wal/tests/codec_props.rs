//! Property test: any sequence of log records, of every `LogPayload`
//! variant, survives `append` → `force` → `crash_image` → `decode_log`
//! unchanged and in LSN order, with records appended after the last force
//! absent from the image.

use proptest::prelude::*;
use pscc_common::{FileId, Oid, PageId, SiteId, TxnId, VolId};
use pscc_storage::SlottedPage;
use pscc_wal::{decode_log, LogPayload, LogRecord, Lsn, ServerLog};

#[derive(Debug, Clone)]
enum Op {
    Append(LogRecord),
    Force,
}

fn arb_page() -> impl Strategy<Value = PageId> {
    (any::<u32>(), any::<u32>(), any::<u32>())
        .prop_map(|(v, f, p)| PageId::new(FileId::new(VolId(v), f), p))
}

fn arb_oid() -> impl Strategy<Value = Oid> {
    (arb_page(), any::<u16>()).prop_map(|(p, s)| Oid::new(p, s))
}

/// Byte images, including empty ones.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..48)
}

/// A slotted page filled with objects until the next insert is refused.
fn arb_full_page() -> impl Strategy<Value = SlottedPage> {
    (256u32..1024, 1u8..40).prop_map(|(size, obj)| {
        let mut page = SlottedPage::new(size);
        let mut fill = 0u8;
        while page.insert(&vec![fill; obj as usize]).is_some() {
            fill = fill.wrapping_add(1);
        }
        page
    })
}

fn arb_payload() -> impl Strategy<Value = LogPayload> {
    prop_oneof![
        (arb_oid(), arb_bytes(), arb_bytes()).prop_map(|(oid, before, after)| LogPayload::Update {
            oid,
            before,
            after
        }),
        (arb_oid(), arb_bytes()).prop_map(|(oid, body)| LogPayload::Create { oid, body }),
        (arb_oid(), arb_bytes()).prop_map(|(oid, before)| LogPayload::Delete { oid, before }),
        Just(LogPayload::Prepare),
        Just(LogPayload::Commit),
        Just(LogPayload::Abort),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(lo, hi, to)| {
            LogPayload::MigrateBegin {
                lo,
                hi,
                to: SiteId(to),
            }
        }),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u64>()).prop_map(
            |(lo, hi, to, layout)| LogPayload::MigrateCommit {
                lo,
                hi,
                to: SiteId(to),
                layout,
            }
        ),
        (any::<u32>(), any::<u32>()).prop_map(|(lo, hi)| LogPayload::MigrateRollback { lo, hi }),
        (any::<u32>(), any::<u32>()).prop_map(|(lo, hi)| LogPayload::MigrateEnd { lo, hi }),
        (any::<u32>(), arb_page(), arb_full_page()).prop_map(|(from, page, image)| {
            LogPayload::MigrateIn {
                from: SiteId(from),
                page,
                image,
            }
        }),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            any::<u32>()
        )
            .prop_map(|(from, lo, hi, layout, n)| LogPayload::MigrateInEnd {
                from: SiteId(from),
                lo,
                hi,
                layout,
                n,
            }),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u64>()).prop_map(
            |(from, lo, hi, layout)| LogPayload::MigrateLand {
                from: SiteId(from),
                lo,
                hi,
                layout,
            }
        ),
    ]
}

/// Appends outnumber forces two to one.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..3, any::<u32>(), any::<u64>(), arb_payload()).prop_map(|(k, site, seq, payload)| {
        if k == 0 {
            Op::Force
        } else {
            Op::Append(LogRecord {
                txn: TxnId::new(SiteId(site), seq),
                payload,
            })
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn forced_records_decode_back_in_lsn_order(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut log = ServerLog::new();
        let mut appended: Vec<(Lsn, LogRecord)> = Vec::new();
        let mut forced = 0usize;
        for op in ops {
            match op {
                Op::Append(rec) => {
                    let lsn = log.append(rec.clone());
                    appended.push((lsn, rec));
                }
                Op::Force => {
                    prop_assert_eq!(log.force(), forced < appended.len());
                    forced = appended.len();
                }
            }
        }

        let (decoded, torn) = decode_log(&log.crash_image().log);
        prop_assert!(!torn, "a forced image decoded as torn");
        prop_assert!(
            decoded.windows(2).all(|w| w[0].0 < w[1].0),
            "LSNs out of order"
        );
        prop_assert_eq!(&decoded[..], &appended[..forced]);
    }
}
