"""Parse-tree data structure with leaf-to-leaf distances.

The tree-based pairing heuristic (Section 5.1) measures the distance between
an aspect leaf and an opinion leaf through the tree; words in separate
clauses/sentences sit in separate subtrees and are therefore farther apart
than raw word distance suggests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["ParseNode"]


class ParseNode:
    """A node in a constituency parse tree.

    Leaves carry the original ``token_index`` so distances can be queried by
    position in the token sequence.
    """

    def __init__(
        self,
        label: str,
        children: Optional[List["ParseNode"]] = None,
        token: Optional[str] = None,
        token_index: Optional[int] = None,
    ):
        self.label = label
        self.children: List[ParseNode] = children or []
        self.token = token
        self.token_index = token_index

    @property
    def is_leaf(self) -> bool:
        return self.token_index is not None

    # -------------------------------------------------------------- queries

    def leaves(self) -> List["ParseNode"]:
        """All leaf nodes in order."""
        if self.is_leaf:
            return [self]
        out: List[ParseNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def leaf_paths(self) -> Dict[int, Tuple[int, ...]]:
        """Map token_index -> path of child positions from the root.

        One walk of the tree.  A caller measuring many leaf pairs takes the
        paths once and compares them with :meth:`path_distance`.
        """
        paths: Dict[int, Tuple[int, ...]] = {}

        def walk(node: "ParseNode", path: Tuple[int, ...]) -> None:
            if node.is_leaf:
                paths[node.token_index] = path
                return
            for i, child in enumerate(node.children):
                walk(child, path + (i,))

        walk(self, ())
        return paths

    def leaf_distance(self, index_a: int, index_b: int) -> int:
        """Number of tree edges on the path between two leaves.

        Raises :class:`KeyError` if either token index is not a leaf.
        """
        paths = self.leaf_paths()
        return self.path_distance(paths[index_a], paths[index_b])

    @staticmethod
    def path_distance(path_a: Tuple[int, ...], path_b: Tuple[int, ...]) -> int:
        """Tree edges between the ends of two root paths from :meth:`leaf_paths`."""
        common = 0
        for step_a, step_b in zip(path_a, path_b):
            if step_a != step_b:
                break
            common += 1
        return (len(path_a) - common) + (len(path_b) - common)

    # ------------------------------------------------------------ rendering

    def pretty(self, indent: int = 0) -> str:
        """Bracketed multi-line rendering (debugging / examples)."""
        pad = "  " * indent
        if self.is_leaf:
            return f"{pad}({self.label} {self.token})"
        inner = "\n".join(child.pretty(indent + 1) for child in self.children)
        return f"{pad}({self.label}\n{inner}\n{pad})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_leaf:
            return f"({self.label} {self.token})"
        return f"({self.label} ...{len(self.children)} children)"
