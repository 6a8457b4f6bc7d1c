"""Hash-table merging (section 2.5).

Segments with identical input variables can share one table: the key is
stored once, and a per-entry bit vector records which member segments'
outputs are valid for that key.  This is what makes GNU Go's eight
``accumulate_influence`` segments fit in the iPAQ's memory in the paper.

Identity of input variables means the *same symbols in the same order* —
the case that arises naturally for sibling segments of one function.
"""

from __future__ import annotations

from .segments import Segment


def merge_groups(selected: list[Segment]) -> dict[str, list[Segment]]:
    """Assign ``merged_group`` ids to segments with identical inputs.

    Returns {group id: members} for every group of two or more segments.
    """
    by_inputs: dict[tuple, list[Segment]] = {}
    for segment in selected:
        key = tuple(shape.symbol.uid for shape in segment.inputs)
        by_inputs.setdefault(key, []).append(segment)
    groups: dict[str, list[Segment]] = {}
    for members in by_inputs.values():
        if len(members) < 2:
            continue
        members.sort(key=lambda s: s.seg_id)
        group_id = f"merged{members[0].seg_id}"
        for member in members:
            member.merged_group = group_id
        groups[group_id] = members
    return groups
