"""Sparse rating-matrix substrate.

BPMF operates on a very sparse ``users x movies`` rating matrix ``R``.  The
Gibbs sampler needs two access patterns:

* for every user ``u``: the movies rated by ``u`` and the rating values
  (a CSR row view), and
* for every movie ``m``: the users that rated ``m`` and the values
  (a CSC column view).

This package provides a small, self-contained sparse-matrix implementation
(built from COO triplets, stored in both CSR and CSC form), train/test
splitting, and the row/column reordering used by the distributed
partitioner to improve locality and balance.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CooMatrix",
    "CompressedAxis",
    "RatingMatrix",
    "DegreeBucket",
    "BucketPlan",
    "build_bucket_plan",
    "shard_bounds",
    "slice_item_range",
    "train_test_split",
    "save_ratings_text",
    "load_ratings_text",
    "save_ratings_npz",
    "load_ratings_npz",
    "save_split_npz",
    "load_split_npz",
    "degree_order",
    "identity_order",
    "bandwidth",
    "reverse_cuthill_mckee",
    "bipartite_rcm",
    "apply_permutation",
    "balanced_block_order",
]

# Lazy (PEP 562): a module that needs only the compressed axes (an
# in-process PredictionService, say) loads no planner, reorderer or I/O.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.sparse.coo": ("CooMatrix",),
    "repro.sparse.csr": ("CompressedAxis", "RatingMatrix"),
    "repro.sparse.buckets": ("DegreeBucket", "BucketPlan",
                             "build_bucket_plan"),
    "repro.sparse.shard": ("shard_bounds", "slice_item_range"),
    "repro.sparse.split": ("train_test_split",),
    "repro.sparse.io": ("save_ratings_text", "load_ratings_text",
                        "save_ratings_npz", "load_ratings_npz",
                        "save_split_npz", "load_split_npz"),
    "repro.sparse.reorder": ("degree_order", "identity_order", "bandwidth",
                             "reverse_cuthill_mckee", "bipartite_rcm",
                             "apply_permutation", "balanced_block_order"),
})
