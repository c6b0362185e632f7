"""MicroBatcher semantics: one pass per loop turn, slicing, drain."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.serving.batching import MicroBatcher


class CountingPredict:
    """Identity-ish predict that records every batch it sees."""

    def __init__(self):
        self.batches: list[np.ndarray] = []

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.batches.append(np.array(x))
        return x[:, 0].astype(np.intp)


def run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_concurrent_submits_share_one_pass(self):
        predict = CountingPredict()

        async def scenario():
            batcher = MicroBatcher(predict)
            rows = [np.full((1, 3), float(i)) for i in range(10)]
            results = await asyncio.gather(
                *[batcher.submit(r) for r in rows]
            )
            return results

        results = run(scenario())
        assert len(predict.batches) == 1
        assert predict.batches[0].shape == (10, 3)
        # Each submitter got exactly its own slice back.
        for i, labels in enumerate(results):
            np.testing.assert_array_equal(labels, [i])

    def test_multi_row_requests_sliced_correctly(self):
        predict = CountingPredict()

        async def scenario():
            batcher = MicroBatcher(predict)
            a = np.arange(6, dtype=float).reshape(3, 2)
            b = np.arange(100, 104, dtype=float).reshape(2, 2)
            return await asyncio.gather(batcher.submit(a), batcher.submit(b))

        la, lb = run(scenario())
        np.testing.assert_array_equal(la, [0, 2, 4])
        np.testing.assert_array_equal(lb, [100, 102])

    def test_sequential_submits_get_separate_batches(self):
        predict = CountingPredict()

        async def scenario():
            batcher = MicroBatcher(predict)
            await batcher.submit(np.zeros((1, 2)))
            await batcher.submit(np.ones((1, 2)))
            return batcher.stats

        stats = run(scenario())
        assert stats.n_batches == 2
        assert stats.n_requests == 2


class TestOneLoopTurn:
    def test_submits_in_one_turn_share_one_pass(self):
        predict = CountingPredict()

        async def scenario():
            batcher = MicroBatcher(predict)
            tasks = [
                asyncio.ensure_future(batcher.submit(np.full((1, 2), i)))
                for i in range(5)
            ]
            await asyncio.sleep(0)  # one turn: all five enqueue, none flush
            assert predict.batches == []
            first = await asyncio.gather(*tasks)
            # A submit made after that flush is the next turn's pass.
            late = await batcher.submit(np.full((2, 2), 9.0))
            return first, late

        first, late = run(scenario())
        assert [b.shape for b in predict.batches] == [(5, 2), (2, 2)]
        for i, labels in enumerate(first):
            np.testing.assert_array_equal(labels, [i])
        np.testing.assert_array_equal(late, [9, 9])

    def test_lone_submit_resolves_next_turn_without_a_timer(self):
        predict = CountingPredict()

        def no_timer(*args, **kwargs):
            raise AssertionError("the batcher armed a timer")

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.call_later = no_timer
            try:
                batcher = MicroBatcher(predict)
                task = asyncio.ensure_future(batcher.submit(np.ones((1, 2))))
                await asyncio.sleep(0)  # the submit enqueues
                assert predict.batches == []
                await asyncio.sleep(0)  # the next turn flushes
                assert len(predict.batches) == 1
                return await task
            finally:
                del loop.call_later

        np.testing.assert_array_equal(run(scenario()), [1])


class TestFailureAndDrain:
    def test_predict_error_propagates_to_every_waiter(self):
        def exploding(x):
            raise RuntimeError("kernel on fire")

        async def scenario():
            batcher = MicroBatcher(exploding)
            tasks = [
                asyncio.ensure_future(batcher.submit(np.zeros((1, 2))))
                for _ in range(3)
            ]
            results = await asyncio.gather(*tasks, return_exceptions=True)
            return results

        results = run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_aclose_drains_pending(self):
        predict = CountingPredict()

        async def scenario():
            batcher = MicroBatcher(predict)
            task = asyncio.ensure_future(batcher.submit(np.zeros((2, 2))))
            await asyncio.sleep(0)  # let the submit enqueue
            await batcher.aclose()
            assert len(predict.batches) == 1  # flushed by aclose itself
            return await asyncio.wait_for(task, timeout=5.0)

        labels = run(scenario())
        assert labels.shape == (2,)

    def test_submit_after_close_raises(self):
        async def scenario():
            batcher = MicroBatcher(CountingPredict())
            await batcher.aclose()
            with pytest.raises(RuntimeError, match="closed"):
                await batcher.submit(np.zeros((1, 2)))

        run(scenario())
