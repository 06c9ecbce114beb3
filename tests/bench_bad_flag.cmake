# The bench binaries must refuse an argument they do not know, a flag
# another bench acts on (`--full` is Table IV's), and a `--json` with no
# path or with a flag in its place: a nonzero exit and an error message
# that names the argument. A typo such as `--quik` used to start the full
# run.
# Parsing happens before any capture, so each case exits at once.
#
# Invoked by ctest as
#   cmake -DTABLE7=<bench_table7_summary> -DTASKS=<bench_tasks>
#         -P bench_bad_flag.cmake

if(NOT DEFINED TABLE7 OR NOT DEFINED TASKS)
  message(FATAL_ERROR "bench_bad_flag: missing -DTABLE7 or -DTASKS")
endif()

foreach(case "${TABLE7};--quik" "${TABLE7};--full" "${TASKS};--json"
             "${TASKS};--json;--quick" "${TASKS};--quick;extra")
  list(GET case 0 bench)
  list(SUBLIST case 1 -1 args)
  list(GET args -1 named)
  execute_process(
    COMMAND "${bench}" ${args}
    RESULT_VARIABLE bench_result
    OUTPUT_VARIABLE bench_output
    ERROR_VARIABLE bench_output)
  if(bench_result EQUAL 0)
    message(FATAL_ERROR
        "bench_bad_flag: '${bench} ${args}' exited 0:\n${bench_output}")
  endif()
  string(FIND "${bench_output}" "${named}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
        "bench_bad_flag: '${bench} ${args}' did not name '${named}':\n${bench_output}")
  endif()
endforeach()
