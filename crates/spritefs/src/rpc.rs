//! Remote procedure call accounting.
//!
//! Sprite is an RPC system: opens, closes, block fetches, write-backs,
//! recalls, and name operations all cross the network. The simulator does
//! not model message contents, but it counts every RPC and its payload so
//! the study can reason about network load (e.g. the consistency-overhead
//! comparison of Table 12 is partly an RPC count).

use sdfs_simkit::CounterSet;

/// The RPC vocabulary between clients and servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RpcKind {
    /// Open a file (naming operation, passes through to the server).
    Open,
    /// Close a file.
    Close,
    /// Fetch one cache block from the server.
    ReadBlock,
    /// Write one cache block back to the server.
    WriteBlock,
    /// Pass-through read on an uncacheable (write-shared) file.
    SharedRead,
    /// Pass-through write on an uncacheable file.
    SharedWrite,
    /// Read directory data (directories are not cached on clients).
    ReadDir,
    /// Page-in from a backing file.
    PageIn,
    /// Page-out to a backing file.
    PageOut,
    /// Server asks a client to flush dirty data (consistency recall).
    Recall,
    /// Server tells a client to drop cached blocks of a file.
    Invalidate,
    /// Create a file or directory.
    Create,
    /// Remove a file or directory.
    Delete,
    /// Truncate a file.
    Truncate,
    /// Force dirty data through (fsync).
    Fsync,
    /// Revalidate cached data against the server (polling mode).
    GetAttr,
    /// Acquire a read or write token (token mode).
    TokenAcquire,
    /// Server recalls a token from a client (token mode).
    TokenRecall,
    /// Client re-registers with a rebooted server (recovery protocol).
    Reregister,
    /// Client reopens a file handle after a server reboot (recovery
    /// protocol; the reopen burst is the "recovery storm").
    Reopen,
    /// Client renews its per-server lease on cached-state grants
    /// (lease-based recovery; also the first message across a healed
    /// partition edge).
    LeaseRenew,
    /// Client reasserts a grant the server revoked at lease expiry
    /// (lease-based recovery after a partition heals).
    Reassert,
}

impl RpcKind {
    /// Every RPC kind, exactly once. `total_msgs`/`total_bytes` and the
    /// name-uniqueness test iterate this, so a newly added variant that
    /// is missing here fails to compile (the match arms in `name` et al.
    /// are exhaustive) or fails the accounting test — new kinds cannot
    /// silently skip accounting.
    pub const ALL: [RpcKind; 22] = [
        RpcKind::Open,
        RpcKind::Close,
        RpcKind::ReadBlock,
        RpcKind::WriteBlock,
        RpcKind::SharedRead,
        RpcKind::SharedWrite,
        RpcKind::ReadDir,
        RpcKind::PageIn,
        RpcKind::PageOut,
        RpcKind::Recall,
        RpcKind::Invalidate,
        RpcKind::Create,
        RpcKind::Delete,
        RpcKind::Truncate,
        RpcKind::Fsync,
        RpcKind::GetAttr,
        RpcKind::TokenAcquire,
        RpcKind::TokenRecall,
        RpcKind::Reregister,
        RpcKind::Reopen,
        RpcKind::LeaseRenew,
        RpcKind::Reassert,
    ];
    /// Dense index of this kind within [`RpcKind::ALL`]; the
    /// observability layer uses it to address per-kind latency
    /// histograms without a map lookup.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase name used in counter keys.
    pub fn name(self) -> &'static str {
        match self {
            RpcKind::Open => "open",
            RpcKind::Close => "close",
            RpcKind::ReadBlock => "read_block",
            RpcKind::WriteBlock => "write_block",
            RpcKind::SharedRead => "shared_read",
            RpcKind::SharedWrite => "shared_write",
            RpcKind::ReadDir => "read_dir",
            RpcKind::PageIn => "page_in",
            RpcKind::PageOut => "page_out",
            RpcKind::Recall => "recall",
            RpcKind::Invalidate => "invalidate",
            RpcKind::Create => "create",
            RpcKind::Delete => "delete",
            RpcKind::Truncate => "truncate",
            RpcKind::Fsync => "fsync",
            RpcKind::GetAttr => "getattr",
            RpcKind::TokenAcquire => "token_acquire",
            RpcKind::TokenRecall => "token_recall",
            RpcKind::Reregister => "reregister",
            RpcKind::Reopen => "reopen",
            RpcKind::LeaseRenew => "lease_renew",
            RpcKind::Reassert => "reassert",
        }
    }

    /// Counter key for message counts of this kind.
    pub fn msgs_key(self) -> &'static str {
        match self {
            RpcKind::Open => "rpc.open.msgs",
            RpcKind::Close => "rpc.close.msgs",
            RpcKind::ReadBlock => "rpc.read_block.msgs",
            RpcKind::WriteBlock => "rpc.write_block.msgs",
            RpcKind::SharedRead => "rpc.shared_read.msgs",
            RpcKind::SharedWrite => "rpc.shared_write.msgs",
            RpcKind::ReadDir => "rpc.read_dir.msgs",
            RpcKind::PageIn => "rpc.page_in.msgs",
            RpcKind::PageOut => "rpc.page_out.msgs",
            RpcKind::Recall => "rpc.recall.msgs",
            RpcKind::Invalidate => "rpc.invalidate.msgs",
            RpcKind::Create => "rpc.create.msgs",
            RpcKind::Delete => "rpc.delete.msgs",
            RpcKind::Truncate => "rpc.truncate.msgs",
            RpcKind::Fsync => "rpc.fsync.msgs",
            RpcKind::GetAttr => "rpc.getattr.msgs",
            RpcKind::TokenAcquire => "rpc.token_acquire.msgs",
            RpcKind::TokenRecall => "rpc.token_recall.msgs",
            RpcKind::Reregister => "rpc.reregister.msgs",
            RpcKind::Reopen => "rpc.reopen.msgs",
            RpcKind::LeaseRenew => "rpc.lease_renew.msgs",
            RpcKind::Reassert => "rpc.reassert.msgs",
        }
    }

    /// Counter key for payload bytes of this kind.
    pub fn bytes_key(self) -> &'static str {
        match self {
            RpcKind::Open => "rpc.open.bytes",
            RpcKind::Close => "rpc.close.bytes",
            RpcKind::ReadBlock => "rpc.read_block.bytes",
            RpcKind::WriteBlock => "rpc.write_block.bytes",
            RpcKind::SharedRead => "rpc.shared_read.bytes",
            RpcKind::SharedWrite => "rpc.shared_write.bytes",
            RpcKind::ReadDir => "rpc.read_dir.bytes",
            RpcKind::PageIn => "rpc.page_in.bytes",
            RpcKind::PageOut => "rpc.page_out.bytes",
            RpcKind::Recall => "rpc.recall.bytes",
            RpcKind::Invalidate => "rpc.invalidate.bytes",
            RpcKind::Create => "rpc.create.bytes",
            RpcKind::Delete => "rpc.delete.bytes",
            RpcKind::Truncate => "rpc.truncate.bytes",
            RpcKind::Fsync => "rpc.fsync.bytes",
            RpcKind::GetAttr => "rpc.getattr.bytes",
            RpcKind::TokenAcquire => "rpc.token_acquire.bytes",
            RpcKind::TokenRecall => "rpc.token_recall.bytes",
            RpcKind::Reregister => "rpc.reregister.bytes",
            RpcKind::Reopen => "rpc.reopen.bytes",
            RpcKind::LeaseRenew => "rpc.lease_renew.bytes",
            RpcKind::Reassert => "rpc.reassert.bytes",
        }
    }
}

/// Records one RPC of `kind` carrying `bytes` of payload into `counters`.
pub fn count_rpc(counters: &mut CounterSet, kind: RpcKind, bytes: u64) {
    count_rpcs(counters, kind, 1, bytes);
}

/// Records `msgs` RPCs of `kind` carrying `bytes` of payload in total.
/// Zero deltas are skipped, so an empty batch creates no counter.
pub(crate) fn count_rpcs(counters: &mut CounterSet, kind: RpcKind, msgs: u64, bytes: u64) {
    if msgs > 0 {
        counters.add(kind.msgs_key(), msgs);
    }
    if bytes > 0 {
        counters.add(kind.bytes_key(), bytes);
    }
}

/// Total RPC messages recorded in `counters`, summed over
/// [`RpcKind::ALL`].
pub fn total_msgs(counters: &CounterSet) -> u64 {
    RpcKind::ALL.iter().map(|k| counters.get(k.msgs_key())).sum()
}

/// Total RPC payload bytes recorded in `counters`, summed over
/// [`RpcKind::ALL`].
pub fn total_bytes(counters: &CounterSet) -> u64 {
    RpcKind::ALL.iter().map(|k| counters.get(k.bytes_key())).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting() {
        let mut c = CounterSet::new();
        count_rpc(&mut c, RpcKind::ReadBlock, 4096);
        count_rpc(&mut c, RpcKind::ReadBlock, 4096);
        count_rpc(&mut c, RpcKind::Open, 0);
        assert_eq!(c.get("rpc.read_block.msgs"), 2);
        assert_eq!(c.get("rpc.read_block.bytes"), 8192);
        assert_eq!(c.get("rpc.open.msgs"), 1);
        assert_eq!(c.get("rpc.open.bytes"), 0);
        assert_eq!(total_msgs(&c), 3);
        assert_eq!(total_bytes(&c), 8192);
    }

    #[test]
    fn batched_counting_skips_zero_deltas() {
        let mut c = CounterSet::new();
        count_rpcs(&mut c, RpcKind::WriteBlock, 0, 0);
        assert!(c.is_empty(), "an empty batch creates no counter");
        count_rpcs(&mut c, RpcKind::ReadBlock, 3, 3 * 4096);
        count_rpc(&mut c, RpcKind::ReadBlock, 4096);
        assert_eq!(c.get("rpc.read_block.msgs"), 4);
        assert_eq!(c.get("rpc.read_block.bytes"), 4 * 4096);
    }

    #[test]
    fn names_are_distinct() {
        use sdfs_simkit::FastSet;
        let names: FastSet<&str> = RpcKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), RpcKind::ALL.len());
        let keys: FastSet<&str> = RpcKind::ALL.iter().map(|k| k.msgs_key()).collect();
        assert_eq!(keys.len(), RpcKind::ALL.len());
        let bkeys: FastSet<&str> = RpcKind::ALL.iter().map(|k| k.bytes_key()).collect();
        assert_eq!(bkeys.len(), RpcKind::ALL.len());
    }

    #[test]
    fn all_contains_every_kind_once() {
        use sdfs_simkit::FastSet;
        let set: FastSet<RpcKind> = RpcKind::ALL.iter().copied().collect();
        assert_eq!(set.len(), RpcKind::ALL.len(), "duplicate in ALL");
        // Key shape: every msgs/bytes key derives from the short name,
        // so the totals really sum what count_rpc wrote.
        for k in RpcKind::ALL {
            assert_eq!(k.msgs_key(), format!("rpc.{}.msgs", k.name()));
            assert_eq!(k.bytes_key(), format!("rpc.{}.bytes", k.name()));
        }
    }

    #[test]
    fn index_matches_all_order() {
        for (i, k) in RpcKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "{:?} index out of sync with ALL", k);
        }
    }

    #[test]
    fn totals_cover_recovery_rpcs() {
        let mut c = CounterSet::new();
        count_rpc(&mut c, RpcKind::Reregister, 0);
        count_rpc(&mut c, RpcKind::Reopen, 0);
        count_rpc(&mut c, RpcKind::Reopen, 128);
        count_rpc(&mut c, RpcKind::LeaseRenew, 0);
        count_rpc(&mut c, RpcKind::Reassert, 64);
        assert_eq!(total_msgs(&c), 5);
        assert_eq!(total_bytes(&c), 192);
    }
}
