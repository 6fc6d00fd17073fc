"""Input-first separable allocation with iSLIP round-robin arbiters.

This is the paper's baseline switch allocator (Section 3): "iSLIP
separable allocators use round-robin arbiters and update the priorities
of each arbiter when it generates a winning grant. ... All separable
allocators in our study perform input arbitration before output
arbitration."

With input-first allocation, each input arbiter first selects one
request per input (among the outputs that input is requesting), then
each output arbiter selects one surviving request per output. Multiple
iterations repeat the process among still-unmatched ports; following
McKeown's iSLIP, arbiter pointers are only updated for grants produced
in the *first* iteration, which preserves the desynchronization property
that gives iSLIP its 100%-throughput guarantee under uniform traffic.
"""

from collections import defaultdict
from typing import Dict

from repro.allocators.base import Allocator, RequestMatrix
from repro.arbiters import RoundRobinArbiter


class SeparableInputFirstAllocator(Allocator):
    """iSLIP-style separable allocator with ``iterations`` passes."""

    def __init__(self, num_inputs: int, num_outputs: int, iterations: int = 1) -> None:
        super().__init__(num_inputs, num_outputs)
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        self.iterations = iterations
        self._input_arbiters = [RoundRobinArbiter(num_outputs) for _ in range(num_inputs)]
        self._output_arbiters = [RoundRobinArbiter(num_inputs) for _ in range(num_outputs)]

    def allocate(self, requests: RequestMatrix) -> Dict[int, int]:
        if self.iterations != 1:
            return self._allocate_iterative(requests)
        # iSLIP-1, the paper's allocator and the router's hot path: the
        # iterative loop below specialised to one pass. Round-robin
        # selection is the closed form "smallest (idx - pointer) % size
        # among the best", which is the arbiter's scan-from-pointer;
        # grants are inserted in the same order (the router iterates
        # the dict when committing, so order is behaviour).
        num_inputs = self.num_inputs
        num_outputs = self.num_outputs
        input_arbiters = self._input_arbiters
        output_arbiters = self._output_arbiters
        # Ports are range-checked (_validate raises) in the loops that
        # read every request anyway, before any arbiter state changes.
        if len(requests) == 1:
            ((i, o),) = requests
            if not (0 <= i < num_inputs and 0 <= o < num_outputs):
                self._validate(requests)
            # A lone request wins both arbiters regardless of pointers.
            output_arbiters[o].pointer = (i + 1) % num_inputs
            input_arbiters[i].pointer = (o + 1) % num_outputs
            return {i: o}
        seen_in = set()
        seen_out = set()
        for i, o in requests:
            if i in seen_in or o in seen_out:
                break
            if not (0 <= i < num_inputs and 0 <= o < num_outputs):
                self._validate(requests)
            seen_in.add(i)
            seen_out.add(o)
        else:
            # Conflict-free matrix: every input has one choice and every
            # output one survivor, so every request is granted, in
            # matrix order.
            grants = {}
            for i, o in requests:
                grants[i] = o
                output_arbiters[o].pointer = (i + 1) % num_inputs
                input_arbiters[i].pointer = (o + 1) % num_outputs
            return grants
        by_input = {}
        for (i, o), prio in requests.items():
            if not (0 <= i < num_inputs and 0 <= o < num_outputs):
                self._validate(requests)
            outputs = by_input.get(i)
            if outputs is None:
                by_input[i] = {o: prio}
            else:
                existing = outputs.get(o)
                if existing is None or prio > existing:
                    outputs[o] = prio
        # Input stage: each input picks one output among its best.
        survivors = {}
        for i, outputs in by_input.items():
            if len(outputs) == 1:
                for choice, best in outputs.items():
                    break
            else:
                best = max(outputs.values())
                pointer = input_arbiters[i].pointer
                best_dist = num_outputs
                for o, p in outputs.items():
                    if p == best:
                        dist = (o - pointer) % num_outputs
                        if dist < best_dist:
                            best_dist = dist
                            choice = o
            entry = survivors.get(choice)
            if entry is None:
                survivors[choice] = {i: best}
            else:
                entry[i] = best
        # Output stage, with the first-iteration pointer updates.
        grants = {}
        for o, inputs in survivors.items():
            if len(inputs) == 1:
                for winner in inputs:
                    break
            else:
                best = max(inputs.values())
                pointer = output_arbiters[o].pointer
                best_dist = num_inputs
                for i, p in inputs.items():
                    if p == best:
                        dist = (i - pointer) % num_inputs
                        if dist < best_dist:
                            best_dist = dist
                            winner = i
            grants[winner] = o
            output_arbiters[o].pointer = (winner + 1) % num_inputs
            input_arbiters[winner].pointer = (o + 1) % num_outputs
        return grants

    def _allocate_iterative(self, requests: RequestMatrix) -> Dict[int, int]:
        """The generic ``iterations``-pass loop (iSLIP-2+, and the
        reference the single-pass path is tested against)."""
        self._validate(requests)
        grants: Dict[int, int] = {}
        matched_outputs = set()

        # Group requests by input for the input-arbitration stage.
        by_input: Dict[int, Dict[int, int]] = defaultdict(dict)
        for (i, o), prio in requests.items():
            existing = by_input[i].get(o)
            if existing is None or prio > existing:
                by_input[i][o] = prio

        for iteration in range(self.iterations):
            survivors = self._input_stage(by_input, grants, matched_outputs)
            new_grants = self._output_stage(survivors, update=iteration == 0)
            for i, o in new_grants.items():
                grants[i] = o
                matched_outputs.add(o)
            if not new_grants:
                break
        return grants

    def state_dict(self):
        return {
            "input_arbiters": [a.state_dict() for a in self._input_arbiters],
            "output_arbiters": [a.state_dict() for a in self._output_arbiters],
        }

    def load_state(self, state):
        for arb, s in zip(self._input_arbiters, state["input_arbiters"]):
            arb.load_state(s)
        for arb, s in zip(self._output_arbiters, state["output_arbiters"]):
            arb.load_state(s)

    def _input_stage(self, by_input, grants, matched_outputs):
        """Each unmatched input selects one request to an unmatched output.

        Returns ``{output: {input: priority}}`` of surviving requests.
        """
        survivors: Dict[int, Dict[int, int]] = defaultdict(dict)
        for i, outputs in by_input.items():
            if i in grants:
                continue
            candidates = {o: p for o, p in outputs.items() if o not in matched_outputs}
            if not candidates:
                continue
            best = max(candidates.values())
            top = [o for o, p in candidates.items() if p == best]
            choice = self._input_arbiters[i].select(top)
            survivors[choice][i] = best
        return survivors

    def _output_stage(self, survivors, update: bool) -> Dict[int, int]:
        """Each output selects one surviving input; optionally update pointers."""
        new_grants: Dict[int, int] = {}
        for o, inputs in survivors.items():
            best = max(inputs.values())
            top = [i for i, p in inputs.items() if p == best]
            winner = self._output_arbiters[o].select(top)
            new_grants[winner] = o
            if update:
                # iSLIP rule: a winning grant rotates both the output
                # arbiter's pointer and the input arbiter's pointer.
                self._output_arbiters[o].update(winner)
                self._input_arbiters[winner].update(o)
        return new_grants


def islip(num_inputs: int, num_outputs: int, iterations: int = 1) -> SeparableInputFirstAllocator:
    """Convenience constructor mirroring the paper's iSLIP-k naming."""
    return SeparableInputFirstAllocator(num_inputs, num_outputs, iterations=iterations)
