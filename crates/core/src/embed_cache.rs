//! Sharded LRU cache of graph embeddings for the NNLP fast path.
//!
//! The expensive half of a prediction — feature extraction plus the full
//! GraphSAGE backbone — depends only on the effective graph, never on the
//! platform head. Serve's degrade mode, NAS-style sweeps and multi-
//! platform queries all re-predict the same graph, so the pooled
//! embedding is cached here keyed by `(graph_hash, batch, predictor
//! stamp, architecture)` and repeat predictions pay only the cheap MLP
//! head.
//!
//! The predictor stamp is part of the key: `train_predictor` /
//! `set_predictor` hot-swaps draw a fresh one, so an embedding computed
//! by a previous model can never be served — stale entries simply stop
//! being addressable and age out of the LRU. The architecture id
//! (`PredictorKind::id`) is part of the key too: an A/B swap between
//! architectures (GraphSAGE ↔ transformer) can never resolve a stale
//! cross-architecture embedding, even if stamps were ever to collide.
//!
//! The cache itself is a [`crate::ShardedLru`]`<EmbedKey, SharedEmbedding>`.

use std::sync::Arc;

/// Identity of a cached embedding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EmbedKey {
    /// `nnlqp_hash::graph_hash` of the effective (rebatched) graph.
    pub graph_hash: u64,
    /// Batch size the graph was rebatched to (part of the hash already,
    /// but kept explicit so keys are self-describing in debug output).
    pub batch: u32,
    /// Predictor generation stamp that produced the embedding.
    pub version: u64,
    /// Architecture id (`PredictorKind::id`) of the producing predictor —
    /// embeddings are never interchangeable across architectures.
    pub arch: u64,
}

/// A cached embedding: the pooled graph vector (static features appended),
/// shared rather than copied between the cache and in-flight predictions.
pub type SharedEmbedding = Arc<Vec<f32>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedLru;

    fn key(hash: u64, version: u64) -> EmbedKey {
        EmbedKey {
            graph_hash: hash,
            batch: 1,
            version,
            arch: 1,
        }
    }

    fn emb(v: f32) -> SharedEmbedding {
        Arc::new(vec![v; 4])
    }

    #[test]
    fn version_is_part_of_the_key() {
        let cache = ShardedLru::new(8, 2);
        cache.insert(key(7, 0), emb(1.0));
        assert!(cache.get(&key(7, 1)).is_none(), "new version must miss");
        assert!(cache.get(&key(7, 0)).is_some());
    }

    #[test]
    fn architecture_is_part_of_the_key() {
        // Regression: an A/B hot-swap between architectures must never
        // serve a stale cross-architecture embedding, even when the
        // graph, batch and stamp all coincide.
        let cache = ShardedLru::new(8, 2);
        let sage = EmbedKey {
            graph_hash: 7,
            batch: 1,
            version: 3,
            arch: 1,
        };
        let transformer = EmbedKey {
            arch: 2,
            ..sage.clone()
        };
        cache.insert(sage.clone(), emb(1.0));
        assert!(
            cache.get(&transformer).is_none(),
            "other architecture must miss"
        );
        cache.insert(transformer.clone(), emb(2.0));
        assert_eq!(cache.get(&sage).unwrap()[0], 1.0);
        assert_eq!(cache.get(&transformer).unwrap()[0], 2.0);
    }
}
