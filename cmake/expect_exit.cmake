# Runs a command and passes only when it exits with the expected code and,
# if EXPECT_OUTPUT is given, when its combined stdout+stderr matches that
# regex.  Used to pin a CLI's handling of --help and bad input (no crash,
# no abort: a clean exit code and a usage message).
#
# Usage:
#   cmake -DCMD=<binary> "-DARGS=--help" -DEXPECT=0
#         [-DEXPECT_OUTPUT=<regex>] -P expect_exit.cmake
if(NOT CMD OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "expect_exit: CMD and EXPECT are required")
endif()
separate_arguments(ARGS)
execute_process(
  COMMAND ${CMD} ${ARGS}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expect_exit: ${CMD} ${ARGS} exited with '${rc}', expected ${EXPECT}:\n${out}${err}")
endif()
if(EXPECT_OUTPUT AND NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "expect_exit: output of ${CMD} ${ARGS} does not match '${EXPECT_OUTPUT}':\n${out}${err}")
endif()
