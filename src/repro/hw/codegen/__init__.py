"""HLS code generation (hls4ml-style backend for Phase 4)."""

from repro.hw.codegen.emitter import EmittedProject, emit_hls_project

__all__ = ["EmittedProject", "emit_hls_project"]
