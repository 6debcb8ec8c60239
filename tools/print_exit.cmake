# Runs TOOL with the arguments after "--" and prints its stderr, then
# "exit code <status>", so a ctest PASS_REGULAR_EXPRESSION checks the
# message and a clean non-zero exit at once (a crash prints a signal
# name instead of a number).
#   cmake -DTOOL=<exe> -P print_exit.cmake -- <args>...
set(args)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE status ERROR_VARIABLE err OUTPUT_QUIET)
message("${err}exit code ${status}")
