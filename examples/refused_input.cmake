# Runs an example on an input it must refuse and checks that it says so the
# way every example does: "error: <what>" on stderr and exit status 1, not an
# uncaught exception (std::terminate, status 134).
#
#   cmake -DEXAMPLE=<binary> -DWORK=<scratch dir> -P refused_input.cmake
#
# The refused input is a checkpoint path whose parent is a regular file: the
# checkpoint manager creates missing directories, so only a file in the way
# makes the first snapshot write fail.
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/notadir" "")
execute_process(
  COMMAND "${EXAMPLE}" 2 1.4 "--checkpoint=${WORK}/notadir/snap"
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE stderr)
file(REMOVE_RECURSE "${WORK}")
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'; stderr:\n${stderr}")
endif()
if(NOT stderr MATCHES "(^|\n)error: ")
  message(FATAL_ERROR "expected an 'error: ' line on stderr, got:\n${stderr}")
endif()
