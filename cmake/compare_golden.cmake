# Byte-compares a bench binary's stdout against a committed golden fixture.
#
# The determinism contract: a sweep's CSV must be bit-for-bit reproducible
# under a fixed seed, regardless of --jobs (each run owns a private
# Simulation) and across refactors of the event loop, so any byte of drift
# means the (time, seq) pop order or the floating-point accumulation order
# changed.
#
# Usage:
#   cmake -DBENCH=<binary> -DARGS="--csv --jobs 1 --out -"
#         -DGOLDEN=<fixture.csv> -P compare_golden.cmake
if(NOT BENCH OR NOT GOLDEN)
  message(FATAL_ERROR "compare_golden: BENCH and GOLDEN are required")
endif()
separate_arguments(ARGS)
execute_process(
  COMMAND ${BENCH} ${ARGS}
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE bench_err
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "compare_golden: ${BENCH} exited with ${rc}:\n${bench_err}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  if(OUT)
    file(WRITE "${OUT}" "${actual}")
    set(where " (actual written to ${OUT})")
  endif()
  message(FATAL_ERROR
    "compare_golden: ${BENCH} output diverged from ${GOLDEN}${where}. "
    "The sweep CSV must stay byte-identical across refactors; an intended "
    "metric change requires re-capturing the fixture.")
endif()
