"""An independent set-associative LRU model of the system cache.

It shares no code with ``repro.cache``: channel and set come straight from
the address bits, and each tenant fills only into its own contiguous way
range (first invalid way first, else the least recently touched way of
that range).  Lookups are global, so a block resident in another tenant's
ways still hits.  Replaying a demand-only stream (no prefetch fills)
through it must reproduce the simulator's demand accesses, residency hits
(ready hits plus in-flight "delayed" hits) and dirty writebacks exactly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def even_way_masks(devices: Sequence[int], associativity: int
                   ) -> Dict[int, List[int]]:
    """Tenant ``i`` of ``n`` owns ways ``[i*k, (i+1)*k)``, ``k = assoc // n``."""
    each = associativity // len(devices)
    return {device: list(range(index * each, (index + 1) * each))
            for index, device in enumerate(devices)}


def replay(addresses: Sequence[int], is_read: Sequence[bool],
           devices: Sequence[int], *, block_size: int, page_size: int,
           num_channels: int, cache_bytes: int, associativity: int,
           way_masks: Dict[int, List[int]]) -> Dict[str, int]:
    """Replay a demand stream; returns ``accesses``, ``hits``, ``writebacks``.

    ``cache_bytes`` is one channel slice's capacity.  A device without an
    entry in ``way_masks`` may fill any way.
    """
    block_shift = block_size.bit_length() - 1
    blocks_per_page = page_size // block_size
    segment_shift = (blocks_per_page // num_channels).bit_length() - 1
    num_sets = cache_bytes // (block_size * associativity)
    all_ways = list(range(associativity))
    # One (tag_to_way, tags, touch, dirty) tuple per (channel, set).
    sets = [({}, [None] * associativity, [0] * associativity,
             [False] * associativity)
            for _ in range(num_channels * num_sets)]
    tick = 0
    hits = writebacks = 0
    for address, read, device in zip(addresses, is_read, devices):
        block = address >> block_shift
        channel = (block & (blocks_per_page - 1)) >> segment_shift
        where, tags, touch, dirty = sets[channel * num_sets
                                         + (block & (num_sets - 1))]
        tick += 1
        way = where.get(block)
        if way is not None:
            hits += 1
            touch[way] = tick
            if not read:
                dirty[way] = True
            continue
        allowed = way_masks.get(device, all_ways)
        victim = next((w for w in allowed if tags[w] is None), None)
        if victim is None:
            victim = min(allowed, key=touch.__getitem__)
            if dirty[victim]:
                writebacks += 1
            del where[tags[victim]]
        tags[victim] = block
        where[block] = victim
        touch[victim] = tick
        dirty[victim] = not read
    return {"accesses": len(addresses), "hits": hits,
            "writebacks": writebacks}
