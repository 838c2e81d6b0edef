# The simulated-cost gate: runs every gated benchmark binary once (each
# registers its benchmarks once per engine row, in process) and checks the
# results against the committed baseline with tools/bench_check.py.
# Invoked by ctest with -DBENCH_DIR=... -DPYTHON=... -DCHECKER=...
# -DBASELINE=... -DWORKDIR=...; the result files stay in WORKDIR, which is
# what `bench_check.py update` regenerates the baseline from.
set(gated bench_fig8_call bench_fig9_return bench_paging bench_filesearch bench_fleet bench_serve)
file(MAKE_DIRECTORY "${WORKDIR}")

set(results "")
foreach(bench IN LISTS gated)
  set(result "${WORKDIR}/${bench}.json")
  file(REMOVE "${result}")
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" "--benchmark_out=${result}" --benchmark_out_format=json
    RESULT_VARIABLE bench_result
    OUTPUT_VARIABLE bench_output
    ERROR_VARIABLE bench_output)
  if(NOT bench_result EQUAL 0)
    message(FATAL_ERROR "${bench} failed (exit ${bench_result}):\n${bench_output}")
  endif()
  list(APPEND results "${result}")
endforeach()

execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" check "--baseline=${BASELINE}" ${results}
  RESULT_VARIABLE check_result
  OUTPUT_VARIABLE check_output
  ERROR_VARIABLE check_output)
if(NOT check_result EQUAL 0)
  message(FATAL_ERROR "bench_check failed (exit ${check_result}):\n${check_output}")
endif()
string(REGEX MATCH "bench_check: [^\n]*" summary "${check_output}")
message("${summary}")
