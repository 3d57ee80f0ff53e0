"""GPU performance, memory and power model for the extract pool.

Paper observations this model is built to reproduce (Sec. IV-C / Fig. 9):

- per-inference *extract* time does **not** drop when the pool grows — the
  GPU time-shares concurrent streams, so per-stream latency grows roughly
  linearly with concurrency while aggregate throughput grows sub-linearly;
- GPU **memory** grows with the extract pool size and stays constant during
  the run (activation buffers are pre-allocated per stream); the refined
  optimum (6 threads) uses ~7 GB against ~10 GB for 7 threads (−30 %);
- GPU **utilization** stays in the 35–60 % band (the V100 is never the
  bottleneck — the CPU side is) and power draw between ~50 and 80 W.
"""

from __future__ import annotations

from repro.engine.config import EngineModelParams
from repro.errors import ValidationError

__all__ = ["GpuModel"]


class GpuModel:
    """Latency/memory/utilization model of one V100 running the extractor."""

    def __init__(self, params: EngineModelParams) -> None:
        self.params = params
        self._active_streams = 0

    # -- latency ---------------------------------------------------------------

    def inference_time(self, concurrency: int) -> float:
        """Per-inference GPU latency with ``concurrency`` active streams.

        ``t(k) = t_gpu * (1 + penalty * (k - 1) / n_gpus)`` — single-stream
        latency plus a linear sharing penalty spread over the node's GPUs
        (streams are balanced across boards). Aggregate throughput
        ``k / t(k)`` still increases with ``k`` but saturates at
        ``n_gpus / (t_gpu * penalty)``.
        """
        if concurrency < 1:
            raise ValidationError(f"concurrency must be >= 1, got {concurrency}")
        p = self.params
        sharing = p.gpu_concurrency_penalty * (concurrency - 1) / p.gpus_per_node
        return p.t_extract_gpu * (1.0 + sharing)

    def max_throughput(self, pool_size: int) -> float:
        """Upper bound on inferences/s with ``pool_size`` always-busy streams."""
        return pool_size / self.inference_time(pool_size)

    # -- stream bookkeeping ------------------------------------------------------

    @property
    def active_streams(self) -> int:
        return self._active_streams

    def start_stream(self) -> float:
        """Register a new inference; returns its latency at the new concurrency.

        :meth:`inference_time` of the stream count including this one, in
        one call.
        """
        self._active_streams += 1
        p = self.params
        sharing = p.gpu_concurrency_penalty * (self._active_streams - 1) / p.gpus_per_node
        return p.t_extract_gpu * (1.0 + sharing)

    def stream_finished(self) -> None:
        if self._active_streams <= 0:
            raise ValidationError("stream_finished without matching start_stream")
        self._active_streams -= 1

    # -- memory -------------------------------------------------------------------

    def memory_gb(self, pool_size: int) -> float:
        """Resident GPU memory for an extract pool of ``pool_size`` threads.

        Quadratic in the pool size, calibrated so that 7 threads occupy
        ~10 GB and 6 threads ~7 GB (paper Sec. IV-C summary). Memory is
        allocated at startup and constant during the run, as the paper
        observes in Fig. 9d.
        """
        if pool_size < 1:
            raise ValidationError(f"pool_size must be >= 1, got {pool_size}")
        import math

        p = self.params
        # streams are balanced across boards; the quadratic buffer growth
        # applies per board, so multi-GPU nodes are memory-cheaper per slot.
        per_gpu = math.ceil(pool_size / p.gpus_per_node)
        mem = p.gpu_mem_base_gb + p.gpu_mem_linear_gb * per_gpu + p.gpu_mem_quad_gb * per_gpu**2
        return max(mem, 0.35 * per_gpu)

    def fits_in_memory(self, pool_size: int) -> bool:
        """Whether the per-board footprint fits (Table II: the extract size
        is "the maximum number of threads which fit in GPU memory")."""
        return self.memory_gb(pool_size) <= self.params.gpu_total_memory_gb

    # -- utilization & power --------------------------------------------------------

    def utilization(self, active_streams: int | float | None = None) -> float:
        """Instantaneous per-board GPU utilization fraction."""
        k = self._active_streams if active_streams is None else active_streams
        return min(1.0, self.params.gpu_util_per_stream * k / self.params.gpus_per_node)

    def power_draw_w(self, active_streams: int | float | None = None) -> float:
        """Total GPU power draw across boards (paper band: ~50–80 W/board)."""
        p = self.params
        per_board = p.gpu_idle_power_w + p.gpu_power_per_util_w * self.utilization(active_streams)
        return per_board * p.gpus_per_node
