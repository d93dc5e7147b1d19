"""tubelat: maximal tubings of path and cycle graphs and their lattices."""

from .graph_core import (COMPLETE, CUSTOM, CYCLE, PATH, Graph, Tubing,
                         compatible, covers, custom_graph,
                         enumerate_maximal_tubings, flip, is_maximal_tubing,
                         is_tube, make_graph, minimum_tubing, relabel_reverse,
                         tubing_from_json, tubing_to_json)
from .gtree import (CYCLE_CBT, PATH_BST, GTree, PairStats, gtree_from_json,
                    gtree_of, gtree_to_dot, gtree_to_json, pair_statistics,
                    tree_move, tubing_of, validate, zippers)
from .cycle_lattice import (ShuffleWord, cut, fiber, fiber_words, join_cycle,
                            join_path, leq_cycle, leq_path, lift, meet_cycle,
                            meet_path, parse_word, sew, shuffle_join,
                            shuffle_meet, word_of)
from .lattice_analysis import (FinitePoset, ForcingSystem, JiIndex, MiIndex,
                               brute_join, brute_meet, build_poset,
                               c_perm, canonical_ji, canonical_mi,
                               check_congruence_uniform,
                               check_semidistributive, forcing_system,
                               forcing_to_json, hasse_dot, is_lattice,
                               join_irreducibles, kappa, lattice_failure,
                               maximal_lower_bounds, meet_irreducibles,
                               minimal_upper_bounds, mobius, mobius_csv,
                               pairs_lattice, reverse_tree,
                               semidistributivity_witness)

__version__ = "0.1.0"
