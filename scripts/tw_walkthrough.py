#!/usr/bin/env python3
"""Walk through the weighted-triangle running example end to end:
genus, group structures, sub-weighted trees, reduction, and the torsor."""

from chipfire import (Divisor, count_pic0, count_picb0, enumerate_trees,
                      pic0_structure, picb0_structure, torsor_act,
                      tree_divisor, weighted_genus)
from chipfire.bernardi import enumerate_subweightings
from chipfire.selfcheck import triangle_tw, tw_roots


def main():
    g = triangle_tw()
    roots, starts = tw_roots()
    print(f"vertices: {g.vertices}, weights {g.vertex_weight}")
    print(f"edge weights: {g.edge_weight}")
    print(f"weighted genus: {weighted_genus(g)}")
    print(f"Jacobian: {pic0_structure(g).invariant_factors} "
          f"(count {count_pic0(g)})")
    print(f"balanced Jacobian: {picb0_structure(g).invariant_factors} "
          f"(count {count_picb0(g)})")
    print()
    for T in enumerate_trees(g):
        subs = enumerate_subweightings(g, T, roots=roots, starts=starts)
        bal = enumerate_subweightings(g, T, balanced_only=True,
                                      roots=roots, starts=starts)
        print(f"tree {T}: {len(subs)} sub-weightings, {len(bal)} balanced")
        for ts in subs:
            mark = " (balanced)" if ts in bal else ""
            D = tree_divisor(g, ts)
            print(f"  sigma {ts.sigma} -> divisor {D.coefficients}{mark}")
    print()
    D0 = Divisor({"v1": 2, "v2": -1, "v3": -1})
    ts0 = next(ts for ts in enumerate_subweightings(g, ("a", "b"), roots=roots,
                                                    starts=starts)
               if ts.sigma["a"] == 2 and ts.sigma["b"] == 2)
    moved = torsor_act(g, D0, ts0)
    print(f"torsor: {D0.coefficients} moves tree {ts0.forest_edges} "
          f"to {moved.forest_edges} with sigma {moved.sigma}")


if __name__ == "__main__":
    main()
