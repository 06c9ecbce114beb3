# emoleak_cli must refuse a malformed numeric flag value: a nonzero
# exit and an error message that names the flag. Each case is one
# value the old std::sto* parsing accepted silently or reported only
# as "stoul"/"stod": garbage, a negative count (which used to wrap to
# ULONG_MAX), trailing garbage, and an out-of-range double.
#
# Invoked by ctest as
#   cmake -DCLI=<emoleak_cli> -P cli_bad_number.cmake

if(NOT DEFINED CLI)
  message(FATAL_ERROR "cli_bad_number: missing -DCLI")
endif()

foreach(case "--threads;abc" "--threads;-1" "--cv;10x" "--seed;-3"
             "--fraction;1e999" "--scrape;90z")
  list(GET case 0 flag)
  list(GET case 1 value)
  execute_process(
    COMMAND "${CLI}" ${flag} ${value}
    RESULT_VARIABLE cli_result
    OUTPUT_VARIABLE cli_output
    ERROR_VARIABLE cli_output)
  if(cli_result EQUAL 0)
    message(FATAL_ERROR
        "cli_bad_number: '${flag} ${value}' exited 0:\n${cli_output}")
  endif()
  string(FIND "${cli_output}" "invalid value for ${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
        "cli_bad_number: '${flag} ${value}' did not name the flag:\n${cli_output}")
  endif()
endforeach()
