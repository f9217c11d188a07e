"""Homology covers of multigraphs, quotient metrics, and cut embeddings."""

from .boxspace import Tower, TowerLevel, build_tower
from .cover import (CoverGraph, EdgeChainModM, VertexChainModM,
                    boundary_mod_m, build_zm_cover, chain_mod_m, cloud_map,
                    cover_girth, has_m_repeated_edge, is_m_congruent,
                    lift_path, phi_profile, project_edge, project_vertex,
                    signed_edge_counts)
from .embed import (BinaryVector, EmbeddedFamily, HalfIntVector,
                    PsiEmbedding, assemble_family, binary_embed_matrix,
                    cycle_cut_embed, embed_point_l1, embed_point_psi,
                    l1_to_l2)
from .errors import (CapExceeded, EndpointMismatch, EndpointOutOfRange,
                     FaultNotInjected, HomcoverError, InvalidParameter,
                     LengthMismatch, NonBinaryCoordinates, NonConstantNe,
                     NotConnected, NotSpanningTree, NotTwoEdgeConnected,
                     ParseError, PathMismatch, SizeCapExceeded,
                     UnsupportedModulus)
from .graph import (MultiGraph, Walk, bfs_distance_matrix, cayley_zm_power,
                    complete_graph, cycle_graph, doubled_edge, girth,
                    graph_document, is_connected, is_two_edge_connected,
                    load_graph, named_graph, path_graph, petersen_graph)
from .harness import (SuiteConfig, VerificationReport, fingerprint,
                      make_congruence_pair, run_suite)
from .metrics import (CompareReport, CompressionProfile, ProfileRow,
                      TreeAverage, compression_profile, d_T_distance, d_q,
                      d_q_from, d_q_tree_average, tree_average_numerators,
                      verify_compare)
from .trees import (SpanningTree, TreeCounts, count_spanning_trees,
                    count_trees_avoiding, enumerate_spanning_trees,
                    sample_uniform_tree, some_spanning_tree, tree_counts)

__version__ = "0.1.0"
