"""Structure-preserving pixel mask selection for image manifolds."""

from .data import DataMatrix, NeighborGraph, knn_graph, load_dataset, synth_dataset
from .embeddings import (
    Embedding,
    GeodesicDistances,
    LleWeights,
    classical_mds,
    geodesics,
    lle_embed,
    lle_weights,
)
from .masks import (
    Mask,
    apply_mask,
    exact_mask_global,
    exact_mask_local,
    global_objective,
    local_objective,
    maps_global,
    maps_local,
    pcoa,
    random_mask,
)
from .metrics import (
    embedding_error,
    neighbor_preservation,
    oose_embedding_error,
    oose_error_isomap,
    procrustes_align,
    residual_variance,
)
from .oose import (
    Reference,
    estimate_parameters,
    isomap_oose,
    leave_one_out,
    lle_oose,
)
from .secants import CliqueSecantArray, build_clique_array

__version__ = "0.1.0"
